"""Word-vector pretraining: CBOW (default) and skip-gram with negative sampling.

Both objectives slide a fixed window over each sentence. CBOW predicts the
center word from the mean of its context vectors; skip-gram predicts each
context word from the center vector. Each step pulls the observed pair
together and pushes a handful of noise words (drawn from the unigram
distribution raised to 3/4) away.

The trainer is single-threaded and bitwise deterministic under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .corpus import EncodedExample, Vocabulary, PAD_TOKEN, UNK_TOKEN
from .fileio import atomic_open
from .seeding import derived_rng

__all__ = [
    "EmbeddingConfig",
    "EmbeddingMatrix",
    "train",
    "cosine",
    "nearest",
    "save_text",
    "load_text",
    "load_words",
    "cbow_window_loss_grads",
    "skipgram_pair_loss_grads",
]

NOISE_POWER = 0.75
LR_FINAL_FRACTION = 0.1  # linear decay from initial_lr down to initial_lr/10


@dataclass(frozen=True)
class EmbeddingConfig:
    dim: int = 200
    window: int = 5
    min_count: int = 2
    epochs: int = 10
    negatives: int = 5
    initial_lr: float = 0.025
    objective: str = "cbow"  # or "skipgram"

    def __post_init__(self):
        if self.dim < 1 or self.window < 1 or self.epochs < 1 or self.negatives < 1:
            raise ValueError("dim, window, epochs, and negatives must all be >= 1")
        if self.objective not in ("cbow", "skipgram"):
            raise ValueError(f"unknown objective {self.objective!r}")


@dataclass
class EmbeddingMatrix:
    """Input and output vector tables; w_out is None for text-loaded vectors."""

    w_in: np.ndarray
    w_out: Optional[np.ndarray] = None
    epoch_losses: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.w_in.shape[1]

    def __len__(self) -> int:
        return self.w_in.shape[0]


def _softplus(x: float) -> float:
    return float(np.logaddexp(0.0, x))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _contrastive(h, w_out, target, negatives):
    """Loss and gradients for one positive target plus sampled noise words.

    Returns (loss, dL/dh, [(word_id, dL/dw_out_row), ...]). Noise draws equal
    to the target are skipped; duplicate draws contribute twice.
    """
    loss = 0.0
    dh = np.zeros_like(h)
    out_grads = []
    x = float(w_out[target] @ h)
    loss += _softplus(-x)
    g = _sigmoid(x) - 1.0  # dL/dx for the positive pair
    dh += g * w_out[target]
    out_grads.append((target, g * h))
    for nid in negatives:
        if nid == target:
            continue
        x = float(w_out[nid] @ h)
        loss += _softplus(x)
        g = _sigmoid(x)
        dh += g * w_out[nid]
        out_grads.append((nid, g * h))
    return loss, dh, out_grads


def cbow_window_loss_grads(w_in, w_out, center, context, negatives):
    """Full CBOW window loss with exact gradients w.r.t. both matrices.

    The hidden vector is the mean of the context rows, so each context row
    receives 1/len(context) of the hidden gradient. Used by the trainer's
    oracle tests; returns dense gradient matrices.
    """
    context = list(context)
    h = w_in[context].mean(axis=0)
    loss, dh, out_grads = _contrastive(h, w_out, center, negatives)
    g_in = np.zeros_like(w_in)
    for cid in context:
        g_in[cid] += dh / len(context)
    g_out = np.zeros_like(w_out)
    for wid, grad in out_grads:
        g_out[wid] += grad
    return loss, g_in, g_out


def skipgram_pair_loss_grads(w_in, w_out, center, context_word, negatives):
    """Skip-gram loss for one (center, context) pair with exact gradients."""
    h = w_in[center]
    loss, dh, out_grads = _contrastive(h, w_out, context_word, negatives)
    g_in = np.zeros_like(w_in)
    g_in[center] += dh
    g_out = np.zeros_like(w_out)
    for wid, grad in out_grads:
        g_out[wid] += grad
    return loss, g_in, g_out


def _noise_table(corpus: Sequence[EncodedExample], vocab_size: int) -> np.ndarray:
    counts = np.zeros(vocab_size, dtype=np.float64)
    for ex in corpus:
        for wid in ex.ids:
            counts[wid] += 1.0
    weights = counts**NOISE_POWER
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("corpus contains no tokens")
    return np.cumsum(weights)


def _sentence_windows(length: int, window: int):
    for i in range(length):
        lo = max(0, i - window)
        hi = min(length, i + window + 1)
        context = list(range(lo, i)) + list(range(i + 1, hi))
        if context:
            yield i, context


def train(
    corpus: Sequence[EncodedExample],
    vocab_size: int,
    cfg: EmbeddingConfig,
    seed: int = 0,
) -> EmbeddingMatrix:
    """Train word vectors over an encoded corpus.

    The learning rate decays linearly from ``initial_lr`` to a tenth of it
    over all steps. Returns the matrix pair with per-epoch mean losses
    attached.
    """
    if vocab_size < 1:
        raise ValueError("vocabulary is empty")
    if not corpus:
        raise ValueError("corpus is empty")
    init_rng = derived_rng(seed, "embedding-init")
    w_in = init_rng.uniform(-0.5 / cfg.dim, 0.5 / cfg.dim, size=(vocab_size, cfg.dim))
    w_out = np.zeros((vocab_size, cfg.dim), dtype=np.float64)
    cum = _noise_table(corpus, vocab_size)

    steps_per_epoch = sum(
        1 for ex in corpus for _ in _sentence_windows(len(ex.ids), cfg.window)
    )
    total_steps = max(cfg.epochs * steps_per_epoch, 1)

    rng = derived_rng(seed, "embedding-train")
    sg = cfg.objective == "skipgram"
    losses = []
    step = 0
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        epoch_terms = 0
        for ex in corpus:
            ids = ex.ids
            for i, context_pos in _sentence_windows(len(ids), cfg.window):
                lr = cfg.initial_lr * (
                    1.0 - (1.0 - LR_FINAL_FRACTION) * step / max(total_steps - 1, 1)
                )
                center = ids[i]
                context = [ids[p] for p in context_pos]
                if sg:
                    h = w_in[center]
                    d_center = np.zeros(cfg.dim)
                    for cword in context:
                        negs = cum.searchsorted(rng.random(cfg.negatives) * cum[-1])
                        loss, dh, out_grads = _contrastive(h, w_out, cword, negs)
                        epoch_loss += loss
                        epoch_terms += 1
                        d_center += dh
                        for wid, grad in out_grads:
                            w_out[wid] -= lr * grad
                    w_in[center] -= lr * d_center
                else:
                    h = w_in[context].mean(axis=0)
                    negs = cum.searchsorted(rng.random(cfg.negatives) * cum[-1])
                    loss, dh, out_grads = _contrastive(h, w_out, center, negs)
                    epoch_loss += loss
                    epoch_terms += 1
                    share = lr / len(context)
                    for cid in context:
                        w_in[cid] -= share * dh
                    for wid, grad in out_grads:
                        w_out[wid] -= lr * grad
                step += 1
        losses.append(epoch_loss / max(epoch_terms, 1))
    return EmbeddingMatrix(w_in, w_out, losses)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; rejects zero vectors."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine is undefined for zero vectors")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def nearest(word: str, vocab: Vocabulary, matrix: EmbeddingMatrix, k: int) -> list:
    """Top-k neighbours of a word by cosine over the input vectors.

    The query itself is excluded; exact ties are broken by vocabulary id. A
    zero vector (such as the reserved rows ``load_text`` prepends) scores 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if word not in vocab:
        raise ValueError(f"query word {word!r} is not in the vocabulary")
    qid = vocab.word_to_id[word]
    norms = np.linalg.norm(matrix.w_in, axis=1)
    unit = matrix.w_in / np.where(norms > 0.0, norms, 1.0)[:, None]
    sims = np.clip(unit @ unit[qid], -1.0, 1.0)
    order = np.argsort(-sims, kind="stable")
    return [(vocab.word_of(int(wid)), float(sims[wid])) for wid in order[order != qid][:k]]


def save_text(matrix: EmbeddingMatrix, vocab: Vocabulary, path) -> None:
    """Write the input vectors in the classic text interchange format.

    Header line ``V dim``, then one ``word v1 ... v_dim`` line per word in id
    order, 8 decimal places (round-trips to well under 1e-6 absolute).
    """
    w_in = matrix.w_in
    if len(vocab) != w_in.shape[0]:
        raise ValueError("vocabulary size does not match matrix rows")
    row_format = " ".join(["%.8f"] * w_in.shape[1])
    with atomic_open(path) as fh:
        fh.write(f"{w_in.shape[0]} {w_in.shape[1]}\n")
        for word, row in zip(vocab.words, w_in):
            fh.write(f"{word} {row_format % tuple(row.tolist())}\n")


def _read_header(fh) -> tuple[int, int]:
    header = fh.readline().split()
    if len(header) != 2:
        raise ValueError(f"malformed header {header!r}, expected 'V dim'")
    try:
        return int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"malformed header {header!r}, expected 'V dim'") from None


def load_words(path) -> Vocabulary:
    """The vocabulary of a text-format vectors file, without parsing its values.

    Checks the header, the row count and the columns of every row as
    ``load_text`` does. Files produced elsewhere may lack the reserved
    pad/unknown words; those get prepended so ids 0/1 keep their meaning.
    """
    with open(path, encoding="utf-8") as fh:
        v, dim = _read_header(fh)
        words = []
        for lineno, line in enumerate(fh, start=2):
            if line.count(" ") != dim:
                raise ValueError(
                    f"expected {dim + 1} columns, got {line.count(' ') + 1}, line {lineno}"
                )
            words.append(line.partition(" ")[0].rstrip("\n"))
    if len(words) != v:
        raise ValueError(f"header declares {v} rows but file has {len(words)}")
    if words[:2] != [PAD_TOKEN, UNK_TOKEN]:
        words = [w for w in (PAD_TOKEN, UNK_TOKEN) if w not in words] + words
    return Vocabulary(words, {w: 0 for w in words}, min_count=0)


def load_text(path) -> tuple[EmbeddingMatrix, Vocabulary]:
    """Load text-format vectors; returns input vectors only plus the vocabulary.

    The reserved words ``load_words`` prepends get zero vectors.
    """
    vocab = load_words(path)
    with open(path, encoding="utf-8") as fh:
        v, dim = _read_header(fh)
        if v and dim:  # else no values: loadtxt would warn (V 0) or drop empty words (dim 0)
            w_in = np.loadtxt(
                fh,
                comments=None,  # a word may start with "#"
                delimiter=" ",
                usecols=range(1, dim + 1),
                dtype=np.float64,
                ndmin=2,
            )
        else:
            w_in = np.zeros((v, dim))
    reserved = len(vocab) - v
    if reserved:
        w_in = np.vstack([np.zeros((reserved, dim)), w_in])
    return EmbeddingMatrix(w_in, None), vocab
