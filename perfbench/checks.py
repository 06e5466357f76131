"""Output checks for the benchmark, computed apart from the program.

Each ``check_*`` function reads the files one hofkit command wrote and
returns a list of problems; an empty list means the output is correct.
The references here are plain NumPy re-derivations from the generator's
expected token streams and from the documented file formats. The only call
into hofkit is the idempotence property of preprocessing.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

PAD_ID, UNK_ID = 0, 1
RESERVED = ["xxpad", "xxunk"]
FILTER_HEIGHTS = (3, 4, 5)
M_MIN = 5
PARAM_ORDER = ("emb", "conv3_w", "conv3_b", "conv4_w", "conv4_b", "conv5_w", "conv5_b",
               "dense_w", "dense_b", "out_w", "out_b")
# Files print six decimals; the program computes the CNN in float32.
SCORE_TOL = 1e-6
PROB_TOL = 5e-5
MARGIN_MIN = 0.1
MAX_PROBLEMS = 5

_ENTITY = re.compile(r"&(#[0-9]+|#[xX][0-9a-fA-F]+|[a-zA-Z]+);")
_MENTION = re.compile(r"@\w")
_RUN3 = re.compile(r"(.)\1\1", re.DOTALL)


class Problems(list):
    """Problem messages, capped so one systematic fault does not flood the log."""

    def add(self, message: str) -> None:
        if len(self) < MAX_PROBLEMS:
            self.append(message)
        elif len(self) == MAX_PROBLEMS:
            self.append("...")


# -- shared references ---------------------------------------------------------


def derived_rng(seed: int, tag: str) -> np.random.Generator:
    """The documented seeding contract: SeedSequence([seed, first 8 bytes of sha256(tag)])."""
    tag_int = int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag_int])))


def build_vocab(streams, min_count: int) -> list[str]:
    """Reserved words, then words with count >= min_count by (-count, word)."""
    counts = Counter(t for s in streams for t in s)
    kept = [w for w, c in counts.items() if c >= min_count and w not in RESERVED]
    return RESERVED + sorted(kept, key=lambda w: (-counts[w], w))


def encode(streams, words: list[str]) -> list[list[int]]:
    index = {w: i for i, w in enumerate(words)}
    return [[index.get(t, UNK_ID) for t in s] for s in streams]


def kfold(n: int, k: int, seed: int) -> list[tuple[list[int], list[int]]]:
    perm = [int(i) for i in derived_rng(seed, "kfold").permutation(n)]
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    bounds = np.cumsum([0] + sizes)
    folds = [perm[bounds[i]:bounds[i + 1]] for i in range(k)]
    return [([x for j, f in enumerate(folds) if j != i for x in f], folds[i]) for i in range(k)]


def macro_f1(preds, labels) -> float:
    preds, labels = np.asarray(preds), np.asarray(labels)
    f1s = []
    for cls in (1, 0):  # HOF first, as the program averages
        tp = int(np.sum((preds == cls) & (labels == cls)))
        predicted, support = int(np.sum(preds == cls)), int(np.sum(labels == cls))
        p = tp / predicted if predicted else 0.0
        r = tp / support if support else 0.0
        f1s.append(2 * p * r / (p + r) if p + r else 0.0)
    return (f1s[0] + f1s[1]) / 2


def f1_agrees(reported: float, preds, labels, ambiguous, tol: float = SCORE_TOL) -> bool:
    """True if some resolution of the near-tie predictions gives the reported macro-F1.

    A prediction whose reference margin is within rounding of the decision
    boundary may legitimately go either way in the program's arithmetic.
    """
    preds = np.array(preds)
    flip = np.flatnonzero(ambiguous)
    if len(flip) > 12:
        return False
    for choice in itertools.product((0, 1), repeat=len(flip)):
        trial = preds.copy()
        trial[flip] = choice
        if abs(macro_f1(trial, labels) - reported) <= tol:
            return True
    return False


def read_checkpoint(path) -> tuple[dict, dict]:
    """Text manifest up to ``end``, then little-endian float32 arrays in PARAM_ORDER."""
    with open(path, "rb") as fh:
        manifest = {}
        for line in fh:
            text = line.decode("utf-8").rstrip("\n")
            if text == "end":
                break
            key, _, value = text.partition(" ")
            manifest[key] = value
        blob = fh.read()
    v, n = int(manifest["vocab_size"]), int(manifest["embed_dim"])
    counts = [int(c) for c in manifest["filter_counts"].split(",")]
    dense = int(manifest["dense_units"])
    shapes = {"emb": (v, n), "dense_w": (sum(counts), dense), "dense_b": (dense,),
              "out_w": (dense,), "out_b": (1,)}
    for h, c in zip(FILTER_HEIGHTS, counts):
        shapes[f"conv{h}_w"], shapes[f"conv{h}_b"] = (c, h * n), (c,)
    flat = np.frombuffer(blob, dtype="<f4").astype(np.float64)
    params, offset = {}, 0
    for key in PARAM_ORDER:
        size = math.prod(shapes[key])
        params[key] = flat[offset:offset + size].reshape(shapes[key])
        offset += size
    if offset != flat.size:
        raise ValueError(f"checkpoint holds {flat.size} values, manifest implies {offset}")
    return manifest, params


def cnn_probs(params: dict, m_max: int, id_lists) -> np.ndarray:
    """Dropout-free forward pass in float64, batched over tweets of equal padded length."""
    padded = []
    for ids in id_lists:
        ids = list(ids)[:m_max]
        padded.append(ids + [PAD_ID] * (M_MIN - len(ids)))
    by_len = defaultdict(list)
    for i, ids in enumerate(padded):
        by_len[len(ids)].append(i)
    probs = np.empty(len(padded))
    for m, rows in by_len.items():
        x = params["emb"][np.array([padded[i] for i in rows])]  # (b, m, n)
        pooled = []
        for h in FILTER_HEIGHTS:
            cols = np.concatenate([x[:, j:m - h + 1 + j] for j in range(h)], axis=2)
            z = cols @ params[f"conv{h}_w"].T + params[f"conv{h}_b"]
            pooled.append(np.maximum(z, 0.0).max(axis=1))
        hidden = np.maximum(np.concatenate(pooled, axis=1) @ params["dense_w"]
                            + params["dense_b"], 0.0)
        logit = hidden @ params["out_w"] + params["out_b"][0]
        probs[rows] = 1.0 / (1.0 + np.exp(-logit))
    return probs


def _floats(fields) -> list[float] | None:
    try:
        return [float(x) for x in fields]
    except ValueError:
        return None


# -- preprocess ----------------------------------------------------------------


def check_preprocess(path, expected, planted, preprocess) -> list[str]:
    """One token line per tweet: planted placeholder counts, clean tokens, fixed point.

    ``preprocess`` is the program's own pipeline function, used only for the
    property that re-preprocessing the joined output changes nothing.
    """
    problems = Problems()
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines[-1] != "":
        problems.add("output does not end with a newline")
    lines = lines[:-1]
    if len(lines) != len(expected):
        problems.add(f"{len(lines)} lines for {len(expected)} tweets")
        return problems
    for i, (line, exp, plant) in enumerate(zip(lines, expected, planted)):
        tokens = line.split(" ") if line else []
        for tok in tokens:
            if not tok or any(ch.isspace() for ch in tok):
                problems.add(f"line {i + 1}: empty or whitespace token {tok!r}")
            elif _MENTION.search(tok) or "http" in tok or _ENTITY.search(tok):
                problems.add(f"line {i + 1}: unnormalised token {tok!r}")
            elif _RUN3.search(tok):
                problems.add(f"line {i + 1}: token {tok!r} keeps a run of 3+")
        counts = Counter(tokens)
        for placeholder, n in plant.items():
            if counts[placeholder] != n:
                problems.add(f"line {i + 1}: {counts[placeholder]} {placeholder}, planted {n}")
        if tokens != list(exp):
            problems.add(f"line {i + 1}: tokens differ from the generated stream")
        if preprocess(line) != tokens:
            problems.add(f"line {i + 1}: re-preprocessing the output changes it")
    return problems


# -- embed-train ---------------------------------------------------------------


def check_vectors(path, dim: int, streams, min_count: int, groups) -> list[str]:
    """Declared shape, finite values, vocabulary order, planted-group cosine margin.

    The margin is the mean cosine within planted groups minus the mean
    cosine across them.
    """
    problems = Problems()
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        rows = [line.rstrip("\n").split(" ") for line in fh]
    if len(header) != 2 or _floats(header) is None:
        return [f"malformed header {header!r}"]
    v, d = int(header[0]), int(header[1])
    if d != dim or v != len(rows):
        problems.add(f"header says {v}x{d}, file has {len(rows)} rows, dim {dim} asked")
    if any(len(r) != dim + 1 for r in rows):
        problems.add("a row does not hold a word and dim values")
        return problems
    values = _floats(x for r in rows for x in r[1:])
    if values is None:
        return problems + ["a value is not a number"]
    w = np.array(values).reshape(len(rows), dim)
    if not np.isfinite(w).all():
        return problems + ["non-finite values"]
    words = [r[0] for r in rows]
    if words != build_vocab(streams, min_count):
        problems.add("word list differs from the vocabulary of the corpus at min_count")
        return problems
    index = {word: i for i, word in enumerate(words)}
    # After one epoch every vector shares a large frequency direction; remove
    # the mean and the top principal direction ("all-but-the-top") first.
    centred = w - w.mean(axis=0)
    top = np.linalg.svd(centred, full_matrices=False)[2][:1]
    centred -= (centred @ top.T) @ top
    unit = centred / np.maximum(np.linalg.norm(centred, axis=1, keepdims=True), 1e-300)
    group_rows = [[index[t] for t in g] for g in groups]
    intra = [unit[a] @ unit[b] for g in group_rows for a, b in itertools.combinations(g, 2)]
    inter = [unit[a] @ unit[b] for g1, g2 in itertools.combinations(group_rows, 2)
             for a in g1 for b in g2]
    margin = float(np.mean(intra) - np.mean(inter))
    if not margin > MARGIN_MIN:
        problems.add(f"planted-group cosine margin {margin:.4f} <= {MARGIN_MIN}")
    return problems


# -- train / predict -----------------------------------------------------------


def val_indices(n: int, val_fraction: float, seed: int) -> list[int]:
    perm = derived_rng(seed, "split").permutation(n)
    return [int(i) for i in perm[:round(val_fraction * n)]]


def check_train(ckpt, history, epochs: int, streams, labels, vocab_words, seed: int,
                val_fraction: float) -> list[str]:
    """Fixed epoch count, falling loss, and the restored weights score the best val F1."""
    problems = Problems()
    lines = Path(history).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "epoch\ttrain_loss\tval_macro_f1":
        return [f"history header {lines[:1]!r}"]
    table = [_floats(line.split("\t")) for line in lines[1:]]
    if any(row is None or len(row) != 3 for row in table):
        return ["malformed history row"]
    if [int(row[0]) for row in table] != list(range(1, epochs + 1)):
        return [f"history has epochs {[row[0] for row in table]}, expected 1..{epochs}"]
    losses = [row[1] for row in table]
    if not all(math.isfinite(x) for x in losses):
        problems.add("non-finite training loss")
    elif not losses[-1] < losses[0]:
        problems.add(f"loss did not fall: {losses[0]} -> {losses[-1]}")
    best = max(row[2] for row in table)
    manifest, params = read_checkpoint(ckpt)
    if params["emb"].shape[0] != len(vocab_words):
        return problems + [f"checkpoint has {params['emb'].shape[0]} rows, vectors file "
                           f"{len(vocab_words)}"]
    val = val_indices(len(streams), val_fraction, seed)
    ids = encode([streams[i] for i in val], vocab_words)
    probs = cnn_probs(params, int(manifest["m_max"]), ids)
    val_labels = [labels[i] for i in val]
    if not f1_agrees(best, probs >= 0.5, val_labels, np.abs(probs - 0.5) <= PROB_TOL):
        problems.add(f"restored weights score val macro-F1 {macro_f1(probs >= 0.5, val_labels):.6f}"
                     f", history best is {best:.6f}")
    return problems


def check_predict(pred, ckpt, tweet_ids, streams, vocab_words) -> list[str]:
    """One row per input in order; probabilities match the reference forward pass."""
    problems = Problems()
    lines = Path(pred).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "id\tlabel\tprobability":
        return [f"prediction header {lines[:1]!r}"]
    rows = [line.split("\t") for line in lines[1:]]
    if len(rows) != len(tweet_ids) or any(len(r) != 3 for r in rows):
        return [f"{len(rows)} prediction rows for {len(tweet_ids)} tweets"]
    if [r[0] for r in rows] != list(tweet_ids):
        problems.add("prediction ids are not the input ids in input order")
    reported = _floats(r[2] for r in rows)
    if reported is None:
        return problems + ["a probability is not a number"]
    manifest, params = read_checkpoint(ckpt)
    ref = cnn_probs(params, int(manifest["m_max"]), encode(streams, vocab_words))
    diff = np.abs(np.array(reported) - ref)
    for i in np.flatnonzero(diff > PROB_TOL):
        problems.add(f"row {i + 1}: p={reported[i]} but the reference gives {ref[i]:.6f}")
    for i, r in enumerate(rows):
        if abs(ref[i] - 0.5) > PROB_TOL and r[1] != ("HOF" if ref[i] >= 0.5 else "NOT"):
            problems.add(f"row {i + 1}: label {r[1]} for p={ref[i]:.6f}")
        elif r[1] not in ("HOF", "NOT"):
            problems.add(f"row {i + 1}: unknown label {r[1]!r}")
    return problems


# -- baselines -----------------------------------------------------------------


def _counts(id_lists, v: int) -> np.ndarray:
    x = np.zeros((len(id_lists), v))
    for i, ids in enumerate(id_lists):
        np.add.at(x[i], ids, 1.0)
    return x


def _tfidf(train_counts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    df = (train_counts > 0).sum(axis=0)
    idf = np.log((1.0 + train_counts.shape[0]) / (1.0 + df)) + 1.0
    return counts * idf


def mnb_reference(xtr, ytr, xte, alpha: float):
    """Laplace-smoothed multinomial naive Bayes; returns (preds, ambiguous)."""
    ytr = np.asarray(ytr)
    class_counts = np.stack([xtr[ytr == c].sum(axis=0) for c in (0, 1)])
    log_lik = np.log(class_counts + alpha) - np.log(
        class_counts.sum(axis=1, keepdims=True) + alpha * xtr.shape[1])
    log_prior = np.log(np.array([np.sum(ytr == 0), np.sum(ytr == 1)]) / len(ytr))
    scores = xte @ log_lik.T + log_prior
    margin = scores[:, 1] - scores[:, 0]
    scale = np.maximum(1.0, np.abs(scores).max(axis=1))
    return margin >= 0, np.abs(margin) <= 1e-9 * scale


def ridge_reference(xtr, ytr, xte, lam: float):
    """Ridge on +/-1 targets with an unpenalised bias, solved directly.

    Eliminating the bias from the normal equations leaves
    (Xc'Xc + lam I) w = Xc'yc on centred data; its n x n dual form
    w = Xc'(Xc Xc' + lam I)^-1 yc is solved with one dense solve.
    """
    y = np.where(np.asarray(ytr) == 1, 1.0, -1.0)
    mean_x, mean_y = xtr.mean(axis=0), y.mean()
    xc = xtr - mean_x
    alpha = np.linalg.solve(xc @ xc.T + lam * np.eye(len(y)), y - mean_y)
    w = xc.T @ alpha
    scores = xte @ w + (mean_y - mean_x @ w)
    return scores >= 0, np.abs(scores) <= 1e-6


def knn_reference(xtr, ytr, xte, k: int):
    """Brute-force cosine top-k, ties kept in training order, vote ties to HOF."""
    ntr, nte = np.linalg.norm(xtr, axis=1), np.linalg.norm(xte, axis=1)
    denom = np.outer(nte, ntr)
    sims = np.divide(xte @ xtr.T, denom, out=np.zeros_like(denom), where=denom > 0)
    votes_for = np.where(np.asarray(ytr) == 1, 1, -1)
    preds, ambiguous = [], []
    for row in sims:
        order = np.argsort(-row, kind="stable")
        preds.append(votes_for[order[:k]].sum() >= 0)
        # a near-tie across the k-th place may order either way in the program;
        # exact zeros (no shared word) are exact there too and keep training order
        last_in, first_out = row[order[k - 1]], row[order[k]] if len(row) > k else -np.inf
        ambiguous.append(abs(last_in - first_out) <= 1e-12 and last_in != 0.0)
    return np.array(preds), np.array(ambiguous)


REFERENCES = {"mnb": ("alpha", mnb_reference), "ridge": ("lambda", ridge_reference),
              "knn": ("k", knn_reference)}


def parse_grid_table(path, grid_points: int, folds: int):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = ["params"] + [f"fold_{i}" for i in range(folds)] + ["mean", "best"]
    if not lines or lines[0].split("\t") != header:
        raise ValueError(f"header {lines[:1]!r}")
    rows = [line.split("\t") for line in lines[1:]]
    if len(rows) != grid_points or any(len(r) != len(header) for r in rows):
        raise ValueError(f"{len(rows)} rows for {grid_points} grid points")
    return rows


def check_baseline(path, family: str, grid: dict, streams, labels, folds: int, seed: int,
                   min_count: int) -> list[str]:
    """Fold scores equal the macro-F1 of independently computed fold predictions."""
    problems = Problems()
    points = [dict(zip(grid, combo)) for combo in itertools.product(*grid.values())]
    try:
        rows = parse_grid_table(path, len(points), folds)
    except ValueError as exc:
        return [f"malformed table: {exc}"]
    table = [_floats(r[1:-1]) for r in rows]
    if any(t is None for t in table):
        return ["a score is not a number"]
    for point, row, scores in zip(points, rows, table):
        expected_params = ",".join(f"{key}={value}" for key, value in point.items())
        if row[0] != expected_params:
            problems.add(f"row for {expected_params} reads {row[0]!r}")
        fold_scores, mean = scores[:-1], scores[-1]
        if abs(mean - sum(fold_scores) / folds) > 2 * SCORE_TOL:
            problems.add(f"{row[0]}: mean {mean} is not the mean of its folds")
        if not all(0.0 <= s <= 1.0 for s in fold_scores):
            problems.add(f"{row[0]}: fold score outside [0, 1]")
    means = [t[-1] for t in table]
    stars = [i for i, r in enumerate(rows) if r[-1] == "*"]
    if len(stars) != 1 or means[stars[0]] < max(means) - 2 * SCORE_TOL:
        problems.add(f"best marker on rows {stars}, means {means}")
    if family not in REFERENCES:  # dnn: no closed form to compare against
        return problems
    key, reference = REFERENCES[family]
    words = build_vocab(streams, min_count)
    x = _counts(encode(streams, words), len(words))
    y = np.asarray(labels)
    for point, row, scores in zip(points, rows, table):
        for f, (tr, te) in enumerate(kfold(len(streams), folds, seed)):
            xtr, xte = x[tr], x[te]
            if family != "mnb":
                xtr, xte = _tfidf(x[tr], xtr), _tfidf(x[tr], xte)
            preds, ambiguous = reference(xtr, y[tr], xte, point[key])
            if not f1_agrees(scores[f], preds.astype(int), y[te], ambiguous):
                problems.add(f"{row[0]} fold {f}: reported {scores[f]}, reference predictions "
                             f"score {macro_f1(preds.astype(int), y[te]):.6f}")
    return problems
