"""Dataset ingestion, vocabulary construction, encoding, and split/CV harness."""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .fileio import atomic_open, utf8_line_errors
from .preprocess import _stemmer, preprocess
from .seeding import derived_rng

__all__ = [
    "CorpusError",
    "Example",
    "Dataset",
    "Vocabulary",
    "EncodedExample",
    "LABEL_TO_ID",
    "ID_TO_LABEL",
    "PAD_ID",
    "UNK_ID",
    "load_tsv",
    "load_token_lines",
    "build_vocab",
    "encode",
    "encode_dataset",
    "split_train_val",
    "kfold",
]

# HOF maps to 1 so the classifier's sigmoid output reads as P(HOF).
LABEL_TO_ID = {"HOF": 1, "NOT": 0}
ID_TO_LABEL = {1: "HOF", 0: "NOT"}

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "xxpad"
UNK_TOKEN = "xxunk"


class CorpusError(ValueError):
    """Raised for malformed dataset files; message carries the line number."""


@dataclass(frozen=True)
class Example:
    tweet_id: str
    tokens: tuple[str, ...]
    label: Optional[int] = None  # 1=HOF, 0=NOT, None=unlabelled


@dataclass
class Dataset:
    examples: list[Example] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def __getitem__(self, i: int) -> Example:
        return self.examples[i]

    def token_streams(self) -> list[tuple[str, ...]]:
        return [ex.tokens for ex in self.examples]

    def subset(self, indices: Sequence[int]) -> "Dataset":
        return Dataset([self.examples[i] for i in indices])


def load_tsv(path, suffixes=None) -> Dataset:
    """Load a labelled or unlabelled tweet TSV.

    Expected header columns: ``text_id``, ``text``, and optionally ``task_1``
    with values HOF/NOT; extra columns are ignored. Text is run through the
    preprocessing pipeline (``suffixes`` overrides the stemmer table).
    Malformed rows and bytes that are not UTF-8 raise ``CorpusError`` naming
    the 1-based line number; the first defect in line order is the one raised.
    """
    stem = _stemmer(suffixes)  # one memo per file: each distinct token is stemmed once
    with open(path, encoding="utf-8", newline="") as fh, utf8_line_errors(
        path, CorpusError, _check_rows
    ):
        return Dataset([
            Example(tweet_id, tuple(preprocess(text, stem=stem)), label)
            for tweet_id, text, label in _rows(fh)
        ])


def _rows(lines: Iterable[str]):
    """(text_id, text, label or None) per data row of a tweet TSV, checked in line order."""
    reader = csv.reader(lines, delimiter="\t", quoting=csv.QUOTE_NONE)
    try:
        header = next(reader)
    except StopIteration:
        raise CorpusError("empty file, missing header") from None
    try:
        id_col = header.index("text_id")
        text_col = header.index("text")
    except ValueError:
        raise CorpusError(
            f"header must contain text_id and text columns, got {header!r}"
        ) from None
    label_col = header.index("task_1") if "task_1" in header else None

    seen_ids: set[str] = set()
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise CorpusError(f"expected {len(header)} fields, got {len(row)}, line {lineno}")
        tweet_id = row[id_col]
        if not tweet_id:
            raise CorpusError(f"empty text_id, line {lineno}")
        if tweet_id in seen_ids:
            raise CorpusError(f"duplicate id {tweet_id!r}, line {lineno}")
        seen_ids.add(tweet_id)
        label = None
        if label_col is not None:
            raw = row[label_col]
            if raw not in LABEL_TO_ID:
                raise CorpusError(f"unknown label {raw!r}, line {lineno}")
            label = LABEL_TO_ID[raw]
        yield tweet_id, row[text_col], label


def _check_rows(text: str) -> None:
    """Raise the first row defect of ``text``, a tweet TSV's lines (``utf8_line_errors``)."""
    for _ in _rows(io.StringIO(text, newline="")):
        pass


def load_token_lines(path) -> list[tuple[str, ...]]:
    """Read an already-preprocessed corpus: one space-joined token stream per line."""
    streams = []
    with open(path, encoding="utf-8") as fh, utf8_line_errors(path):
        for line in fh:
            streams.append(tuple(line.split()))
    return streams


@dataclass
class Vocabulary:
    """Dense word<->id map with frequency counts.

    Ids 0 and 1 are reserved for the padding and unknown-word tokens and are
    always present regardless of their corpus count.
    """

    words: list[str]
    counts: dict[str, int]

    def __post_init__(self):
        self.word_to_id = {w: i for i, w in enumerate(self.words)}
        if self.words[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError("ids 0/1 must be xxpad/xxunk")

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_id

    def save(self, path) -> None:
        """Dump as UTF-8 lines ``word<TAB>count`` in id order."""
        with atomic_open(path) as fh:
            for w in self.words:
                fh.write(f"{w}\t{self.counts.get(w, 0)}\n")


def build_vocab(streams: Iterable[Sequence[str]], min_count: int = 2) -> Vocabulary:
    """Count tokens over all streams and keep words with count >= min_count.

    There is no upper cap on vocabulary size. Ids are assigned by descending
    count with a lexicographic tie-break, after the two reserved slots.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: Counter = Counter()
    for stream in streams:
        counts.update(stream)
    kept = [
        w
        for w in counts
        if counts[w] >= min_count and w not in (PAD_TOKEN, UNK_TOKEN)
    ]
    kept.sort(key=lambda w: (-counts[w], w))
    words = [PAD_TOKEN, UNK_TOKEN] + kept
    return Vocabulary(words, dict(counts))


@dataclass(frozen=True)
class EncodedExample:
    ids: tuple[int, ...]
    label: Optional[int] = None


def encode(tokens: Sequence[str], vocab: Vocabulary, label: Optional[int] = None) -> EncodedExample:
    """Map tokens to ids; out-of-vocabulary tokens map to the unknown id."""
    get = vocab.word_to_id.get
    return EncodedExample(tuple([get(t, UNK_ID) for t in tokens]), label)


def encode_dataset(ds: Dataset, vocab: Vocabulary) -> list[EncodedExample]:
    return [encode(ex.tokens, vocab, ex.label) for ex in ds]


def split_train_val(
    ds: Dataset,
    val_fraction: float = 0.2,
    seed: int = 0,
    stratified: bool = False,
) -> tuple[Dataset, Dataset]:
    """Deterministic train/validation partition.

    The validation size is round(val_fraction * N). With ``stratified`` the
    fraction is applied per class (requires labels).
    """
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must be in (0, 1)")
    n = len(ds)
    if n < 2:
        raise ValueError("need at least 2 examples to split")
    rng = derived_rng(seed, "split")
    if stratified:
        by_class: dict[Optional[int], list[int]] = {}
        for i, ex in enumerate(ds):
            by_class.setdefault(ex.label, []).append(i)
        val_idx: list[int] = []
        for label in sorted(by_class, key=lambda x: (x is None, x)):
            idx = by_class[label]
            perm = rng.permutation(len(idx))
            take = round(val_fraction * len(idx))
            val_idx.extend(idx[j] for j in perm[:take])
        val_set = set(val_idx)
        train_idx = [i for i in range(n) if i not in val_set]
        return ds.subset(train_idx), ds.subset(sorted(val_idx))
    perm = rng.permutation(n)
    n_val = round(val_fraction * n)
    val_idx = [int(i) for i in perm[:n_val]]
    train_idx = [int(i) for i in perm[n_val:]]
    return ds.subset(train_idx), ds.subset(val_idx)


def kfold(n: int, k: int = 10, seed: int = 0) -> list[tuple[list[int], list[int]]]:
    """Shuffled k-fold index partitions.

    Returns k (train_indices, test_indices) pairs; test folds are an exact
    partition of range(n) with sizes differing by at most one.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError(f"need at least k={k} examples, got {n}")
    rng = derived_rng(seed, "kfold")
    perm = [int(i) for i in rng.permutation(n)]
    base, extra = divmod(n, k)
    folds: list[list[int]] = []
    pos = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(perm[pos : pos + size])
        pos += size
    out = []
    for i in range(k):
        test = folds[i]
        train = [idx for j, fold in enumerate(folds) if j != i for idx in fold]
        out.append((train, test))
    return out
