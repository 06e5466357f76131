"""Seeded input generator for the hofkit benchmark.

Every raw tweet is built from pieces whose preprocessed form is known by
construction, so the generator also returns the token stream the program
must produce for it. The checks compare the program's outputs against these
streams and against NumPy computations made on them, never against stored
program output.

Regenerate the inputs of one workload without running anything:

    python3 perfbench/gen.py --workload cnn --seed 1 --out perfbench/out/inputs
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SUFFIX_TABLE = ROOT / "src" / "hofkit" / "data" / "hindi_suffixes.txt"

# Input sizes per workload. Chosen so one round of a workload's commands
# takes a few seconds on a 2-core machine (see README.md).
SIZES = {
    "pretrain": {"tweets": 900, "universe": 6000, "zipf": 1.0},
    "cnn": {"labelled": 320, "unlabelled": 1500, "vocab": 20000, "zipf": 1.0},
    # a flatter Zipf law gives a vocabulary of a few thousand words at min_count 2
    "baselines": {"tweets": 600, "universe": 9000, "zipf": 0.75},
}
MIN_TOKENS, MAX_TOKENS = 10, 40
N_GROUPS, GROUP_SIZE = 8, 4
N_MARKERS = 40
EMBED_DIM = 200
VECTOR_STD = 0.1

_CONSONANTS = ["k", "kh", "g", "gh", "ch", "j", "jh", "t", "th", "d", "dh",
               "n", "p", "ph", "b", "bh", "m", "y", "r", "l", "v", "s", "sh", "h"]
_VOWELS = ["a", "i", "u", "e", "o"]
_FINALS = ["t", "n", "r", "l", "m", "k", "s"]
_DEVA_CONSONANTS = [chr(c) for c in range(0x0915, 0x093A)]
_DEVA_MATRAS = ["ा", "ि", "ी", "ु", "ू", "े",
                "ै", "ो", "ौ"]
_PUNCT = [("!", "!"), ("?", "?"), (",", ","), ("!!!!", "!!"), ("??", "??")]
_ZERO_WIDTH = "\u200b"
_DANDA = "।"
_MAX_SUFFIX = 5
_RUN3 = re.compile(r"(.)\1\1")


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Independent stream per purpose, so resizing one input leaves the others."""
    tag_int = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "little")
    return np.random.default_rng([seed, tag_int, 0xBE7C])


def load_suffixes(path=SUFFIX_TABLE) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [s.strip() for s in fh if s.strip() and not s.startswith("#")]


@dataclass
class Word:
    """One lexicon entry: the token the program must emit, and raw spellings of it."""

    token: str
    forms: list[str]
    romanised: bool
    double_at: int = -1  # index of a doubled letter that may be elongated


def _romanised(rng) -> tuple[str, int]:
    n_syl = int(rng.integers(1, 4))
    parts = []
    double_at = -1
    for i in range(n_syl):
        c = _CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
        if i > 0 and len(c) == 1 and double_at < 0 and rng.random() < 0.3:
            double_at = len("".join(parts))
            c = c + c
        parts.append(c + _VOWELS[int(rng.integers(len(_VOWELS)))])
    if rng.random() < 0.4:
        parts.append(_FINALS[int(rng.integers(len(_FINALS)))])
    return "".join(parts), double_at


def _strip_once(word: str, suffixes: frozenset[str]) -> str | None:
    """Longest table suffix that the stemmer would strip from ``word``, if any."""
    for n in range(min(len(word) - 1, _MAX_SUFFIX), 0, -1):
        if word[-n:] in suffixes:
            return word[-n:]
    return None


def _devanagari(rng, table: list[str]) -> tuple[str, list[str]] | None:
    suffixes = frozenset(table)
    n = int(rng.integers(2, 5))
    chars = []
    for i in range(n):
        chars.append(_DEVA_CONSONANTS[int(rng.integers(len(_DEVA_CONSONANTS)))])
        if i < n - 1 and rng.random() < 0.6:
            chars.append(_DEVA_MATRAS[int(rng.integers(len(_DEVA_MATRAS)))])
    stem = "".join(chars)
    if _strip_once(stem, suffixes) is not None or _RUN3.search(stem):
        return None
    # a suffixed form stems back to the stem only if the stemmer strips exactly
    # the appended suffix; stripping stops there because the stem matches none
    forms = [stem]
    for i in rng.permutation(len(table))[:12]:
        form = stem + table[int(i)]
        if _strip_once(form, suffixes) == table[int(i)] and not _RUN3.search(form):
            forms.append(form)
            if len(forms) == 4:
                break
    return stem, forms


def make_words(rng, n: int, suffixes: list[str], taken: set[str]) -> list[Word]:
    words: list[Word] = []
    while len(words) < n:
        if rng.random() < 0.5:
            tok, double_at = _romanised(rng)
            if tok in taken or len(tok) < 2:
                continue
            forms = [tok, tok, tok, tok.capitalize(), tok[:1] + _ZERO_WIDTH + tok[1:]]
            word = Word(tok, forms, True, double_at)
        else:
            made = _devanagari(rng, suffixes)
            if made is None or made[0] in taken:
                continue
            stem, forms = made
            forms.append(f"&#{ord(stem[0])};{stem[1:]}")
            word = Word(stem, forms, False)
        taken.add(word.token)
        words.append(word)
    return words


def zipf_cdf(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return np.cumsum(weights) / weights.sum()


@dataclass
class Tweet:
    text: str
    tokens: list[str]
    planted: dict = field(default_factory=lambda: {"xxatp": 0, "xxurl": 0, "xxrtu": 0})


class TweetMaker:
    """Raw Hinglish tweets with placeholders, entities, elongations and junk."""

    def __init__(self, rng, universe: list[Word], zipf: float):
        self.rng = rng
        self.universe = universe
        self.cdf = zipf_cdf(len(universe), zipf)

    def _surface(self, word: Word) -> tuple[str, list[str]]:
        rng = self.rng
        r = rng.random()
        if word.romanised and word.double_at >= 0 and r < 0.15:
            i = word.double_at
            run = word.token[i] * int(rng.integers(3, 7))
            return word.token[:i] + run + word.token[i + 2:], [word.token]
        form = word.forms[int(rng.integers(len(word.forms)))]
        if word.romanised and r > 0.95:
            return f"&quot;{form}&quot;", ['"', word.token, '"']
        if r > 0.9:
            text, tok = _PUNCT[int(rng.integers(len(_PUNCT)))]
            return form + text, [word.token, tok]
        if not word.romanised and r > 0.85:
            return f"{form} {_DANDA}", [word.token, _DANDA]
        return form, [word.token]

    def make(self, extra: list[Word] = (), pool: list[Word] = ()) -> Tweet:
        """A tweet of Zipf-drawn words, or of words drawn evenly from ``pool``.

        ``extra`` words (HOF markers) go in as one contiguous run.
        """
        while True:
            tweet = self._make(extra, pool)
            if MIN_TOKENS <= len(tweet.tokens) <= MAX_TOKENS:
                return tweet

    def _make(self, extra: list[Word], pool: list[Word]) -> Tweet:
        rng = self.rng
        n = int(rng.integers(MIN_TOKENS - 2, MAX_TOKENS - 4)) - len(extra)
        if pool:
            words = [pool[int(i)] for i in rng.integers(0, len(pool), n)]
        else:
            ranks = np.minimum(np.searchsorted(self.cdf, rng.random(n)), len(self.universe) - 1)
            words = [self.universe[int(i)] for i in ranks]
        at = int(rng.integers(len(words) + 1))
        words[at:at] = list(extra)
        pieces: list[tuple[str, list[str]]] = [self._surface(w) for w in words]
        tweet = Tweet("", [])

        def mention():
            name = "".join(_VOWELS[int(i)] for i in rng.integers(0, 5, 3))
            return f"@{name}{int(rng.integers(1000))}"

        for _ in range(int(rng.integers(0, 3))):
            pos = int(rng.integers(len(pieces) + 1))
            if rng.random() < 0.2:
                pieces.insert(pos, ("&amp;#64;" + mention()[1:], ["xxatp"]))
            else:
                pieces.insert(pos, (mention(), ["xxatp"]))
            tweet.planted["xxatp"] += 1
        if rng.random() < 0.1:
            pieces.insert(int(rng.integers(len(pieces) + 1)), ("&amp;amp;", ["&"]))
        if rng.random() < 0.1:
            pieces.insert(int(rng.integers(1, len(pieces))), ("<br>", []))
        if rng.random() < 0.35:
            slug = "".join(chr(97 + int(i)) for i in rng.integers(0, 26, 8))
            url = f"https://t.co/{slug}" if rng.random() < 0.7 else f"http://example.com/{slug}?s=2"
            pieces.append((url, ["xxurl"]))
            tweet.planted["xxurl"] += 1
        if rng.random() < 0.15:
            pieces.insert(0, (f"RT {mention()}:", ["xxrtu"]))
            tweet.planted["xxrtu"] += 1
        tweet.text = " ".join(p[0] for p in pieces)
        tweet.tokens = [t for p in pieces for t in p[1]]
        return tweet


@dataclass
class Inputs:
    """Generated files plus everything the checks need to know about them."""

    files: dict
    expected: dict  # file key -> list of expected token streams, in row order
    meta: dict


def _write_tsv(path: Path, tweets: list[Tweet], ids: list[str], labels=None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("text_id\ttext" + ("\ttask_1" if labels is not None else "") + "\n")
        for i, (tid, tw) in enumerate(zip(ids, tweets)):
            row = f"{tid}\t{tw.text}"
            if labels is not None:
                row += "\t" + ("HOF" if labels[i] else "NOT")
            fh.write(row + "\n")


def _labelled(maker: TweetMaker, markers: list[Word], n: int, rng):
    tweets, labels = [], []
    for i in range(n):
        hof = i % 2 == 0
        extra = []
        if hof:
            k = int(rng.integers(1, 3))
            extra = [markers[int(j)] for j in rng.choice(len(markers), size=k, replace=False)]
        tweets.append(maker.make(extra))
        labels.append(1 if hof else 0)
    return tweets, labels


def write_vectors(path: Path, words: list[str], dim: int, rng, near: list[str] = ()) -> None:
    """Text-format vectors, ``V dim`` header, six decimals.

    Words in ``near`` share one direction, as pretrained vectors place
    offensive words close together, so a few CNN epochs find them.
    """
    values = rng.normal(0.0, VECTOR_STD, size=(len(words), dim))
    direction = rng.normal(0.0, VECTOR_STD, size=dim)
    near = set(near)
    rows = [i for i, w in enumerate(words) if w in near]
    values[rows] = 0.5 * values[rows] + direction
    row_fmt = " ".join(["%.6f"] * dim)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {dim}\n")
        fh.writelines(f"{w} {row_fmt % tuple(v)}\n" for w, v in zip(words, values))


def generate(workload: str, seed: int, out: Path) -> Inputs:
    out.mkdir(parents=True, exist_ok=True)
    suffixes = load_suffixes()
    size = SIZES[workload]
    taken: set[str] = set()
    if workload == "pretrain":
        rng = rng_for(seed, "pretrain")
        universe = make_words(rng, size["universe"], suffixes, taken)
        groups = [make_words(rng, GROUP_SIZE, suffixes, taken) for _ in range(N_GROUPS)]
        maker = TweetMaker(rng, universe, size["zipf"])
        # three tweets in ten are slogans that repeat the words of one planted
        # group, so CBOW pulls each group together within a single epoch
        tweets = [maker.make(pool=groups[(3 * (i // 10) + i % 10) % N_GROUPS]
                             if i % 10 < 3 else ())
                  for i in range(size["tweets"])]
        ids = [f"p{i:05d}" for i in range(len(tweets))]
        files = {"raw": out / "raw.tsv"}
        _write_tsv(files["raw"], tweets, ids)
        meta = {"groups": [[w.token for w in grp] for grp in groups],
                "planted": [tw.planted for tw in tweets]}
        return Inputs(files, {"raw": [tw.tokens for tw in tweets]}, meta)

    if workload == "cnn":
        rng = rng_for(seed, "cnn")
        universe = make_words(rng, size["vocab"], suffixes, taken)
        markers = make_words(rng, N_MARKERS, suffixes, taken)
        maker = TweetMaker(rng, universe, size["zipf"])
        lab, labels = _labelled(maker, markers, size["labelled"], rng)
        unl, _ = _labelled(maker, markers, size["unlabelled"], rng)
        lab_ids = [f"l{i:05d}" for i in range(len(lab))]
        unl_ids = [f"u{i:05d}" for i in range(len(unl))]
        # a real pretrained vocabulary misses some words: leave 4% of the
        # universe out, so those tokens map to the unknown id
        missing = set(rng.choice(len(universe), size=len(universe) // 25, replace=False).tolist())
        vocab = ["xxpad", "xxunk", "xxatp", "xxurl", "xxrtu", "xxrtm", "&", '"', _DANDA]
        vocab += [t for _, t in _PUNCT]
        vocab += [w.token for w in markers]
        vocab += [w.token for i, w in enumerate(universe) if i not in missing]
        files = {"labelled": out / "labelled.tsv", "unlabelled": out / "unlabelled.tsv",
                 "vectors": out / "vectors.txt"}
        _write_tsv(files["labelled"], lab, lab_ids, labels)
        _write_tsv(files["unlabelled"], unl, unl_ids)
        write_vectors(files["vectors"], vocab, EMBED_DIM, rng, [w.token for w in markers])
        meta = {"labels": labels, "unl_ids": unl_ids, "vocab": vocab}
        return Inputs(files, {"labelled": [t.tokens for t in lab],
                              "unlabelled": [t.tokens for t in unl]}, meta)

    if workload == "baselines":
        rng = rng_for(seed, "baselines")
        universe = make_words(rng, size["universe"], suffixes, taken)
        markers = make_words(rng, N_MARKERS, suffixes, taken)
        maker = TweetMaker(rng, universe, size["zipf"])
        lab, labels = _labelled(maker, markers, size["tweets"], rng)
        ids = [f"b{i:05d}" for i in range(len(lab))]
        files = {"labelled": out / "labelled.tsv"}
        _write_tsv(files["labelled"], lab, ids, labels)
        return Inputs(files, {"labelled": [t.tokens for t in lab]},
                      {"labels": labels})
    raise ValueError(f"unknown workload {workload!r}")


def stats(inputs: Inputs, min_count: int = 2) -> dict:
    """Make-up of the generated inputs, as reported in README.md."""
    out = {}
    for key, streams in inputs.expected.items():
        lengths = np.array([len(s) for s in streams])
        counts: dict[str, int] = {}
        for s in streams:
            for t in s:
                counts[t] = counts.get(t, 0) + 1
        out[key] = {
            "tweets": len(streams),
            "tokens_min_mean_max": [int(lengths.min()), round(float(lengths.mean()), 1),
                                    int(lengths.max())],
            "distinct_tokens": len(counts),
            f"vocab_at_min_count_{min_count}": 2 + sum(c >= min_count for c in counts.values()),
        }
        if "vocab" in inputs.meta:
            index = {w: i for i, w in enumerate(inputs.meta["vocab"])}
            per_batch = [len({index.get(t, 1) for s in streams[i:i + 32] for t in s})
                         for i in range(0, len(streams) - 31, 32)]
            out[key]["vocab_rows"] = len(index)
            out[key]["distinct_ids_per_batch_of_32"] = round(float(np.mean(per_batch)), 1)
            out[key]["oov_token_share"] = round(
                sum(t not in index for s in streams for t in s) / int(lengths.sum()), 4)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    inputs = generate(args.workload, args.seed, Path(args.out))
    print(json.dumps({"files": {k: str(v) for k, v in inputs.files.items()},
                      "stats": stats(inputs)}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
