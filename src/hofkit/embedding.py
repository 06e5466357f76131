"""Word-vector pretraining: CBOW (default) and skip-gram with negative sampling.

Both objectives slide a fixed window over each sentence. CBOW predicts the
center word from the mean of its context vectors; skip-gram predicts each
context word from the center vector. Each example pulls the observed pair
together and pushes a handful of noise words (drawn from the unigram
distribution raised to 3/4) away.

Training takes one SGD step per tweet (sentence batching, as in Ji et al.
2016, "Parallelizing Word2Vec in Shared and Distributed Memory"): all of a
tweet's examples read the tables as they were before the step, and the
step writes each distinct row once. The corpus is walked in blocks of whole
tweets of about ``BLOCK_EXAMPLES`` examples; what does not read the tables
(learning rates, noise draws, target/noise ids, sign and loss masks, each
tweet's distinct rows) is computed once per block, then one loop takes the
block's steps tweet by tweet. The trainer is single-threaded and
deterministic: the same seed gives the same bytes.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .corpus import EncodedExample, Vocabulary, PAD_TOKEN, UNK_TOKEN
from .fileio import atomic_open, utf8_line_errors
from .seeding import derived_rng

__all__ = [
    "EmbeddingConfig",
    "EmbeddingMatrix",
    "train",
    "save_text",
    "load_text",
    "load_words",
]

NOISE_POWER = 0.75
LR_FINAL_FRACTION = 0.1  # linear decay from initial_lr down to initial_lr/10
# examples per block of whole tweets in train: only one block's bookkeeping
# is alive at a time, so this bounds what train holds beside its tables
BLOCK_EXAMPLES = 512


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
        if not (np.isfinite(self.initial_lr) and self.initial_lr > 0):
            raise ValueError(f"initial_lr must be positive and finite, got {self.initial_lr}")


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


def _noise_table(corpus: Sequence[EncodedExample], vocab_size: int) -> np.ndarray:
    """Cumulative unigram counts raised to ``NOISE_POWER``, to draw noise words from."""
    ids = np.fromiter(chain.from_iterable(ex.ids for ex in corpus), dtype=np.intp)
    weights = np.bincount(ids, minlength=vocab_size).astype(np.float64) ** NOISE_POWER
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("corpus contains no tokens")
    return np.cumsum(weights)


def _context_band(length: int, window: int) -> np.ndarray:
    """(L, L) mask whose row i marks the context positions of center i."""
    gap = np.abs(np.subtract.outer(np.arange(length), np.arange(length)))
    return (gap > 0) & (gap <= window)


def _examples(ids: np.ndarray, window: int, skipgram: bool):
    """One tweet's examples: the (E, L) operator from ``w_in[ids]`` to the
    hidden vectors, the E target ids, and the center position of each.

    CBOW has one example per position, whose hidden vector is the mean of its
    context rows. Skip-gram has one per (center, context) pair, centers in
    order and each center's context positions in order, and its hidden
    vector is the center row. ``train`` passes ``np.arange(L)`` for ``ids``,
    so the targets are positions.
    """
    band = _context_band(len(ids), window)
    if skipgram:
        center, context = np.nonzero(band)
        return np.eye(len(ids))[center], ids[context], center
    return band / band.sum(axis=1, keepdims=True), ids, np.arange(len(ids))


def _block(tweets, examples: dict, negatives: int, cum: np.ndarray, rng):
    """A block's ids, operators, window positions and target and noise ids.

    ``examples`` maps a tweet length to ``_examples`` of its positions. Gives
    the tweets' ids one after another, each tweet's operator, and for every
    example the position of its window among those ids and its ``out_ids``
    row: the target, then ``negatives`` noise words. The noise words of the
    whole block come from one ``rng.random`` call; PCG64 makes each double
    from one 64-bit word, so they are the numbers one call per tweet draws.
    """
    lengths = [len(ids) for ids in tweets]
    ids = np.fromiter(chain.from_iterable(tweets), np.intp, sum(lengths))
    block = [examples[n] for n in lengths]
    first = np.repeat(np.cumsum(lengths) - lengths, [len(op) for op, _, _ in block])
    targets = ids[np.concatenate([target for _, target, _ in block]) + first]
    draws = cum.searchsorted(rng.random(len(targets) * negatives) * cum[-1])
    out_ids = np.column_stack([targets, draws.reshape(len(targets), negatives)])
    position = first + np.concatenate([center for _, _, center in block])
    return ids, [op for op, _, _ in block], position, out_ids


def _distinct(group: np.ndarray, ids: np.ndarray, vocab_size: int):
    """``np.unique(ids, return_inverse=True)`` within each group, for all groups at once.

    ``group`` numbers each id's group, 0, 1, ... in order. One ``np.unique``
    over ``group * vocab_size + id`` keys sorts by group and then by id, so
    group t's distinct ids are ``rows[bounds[t]:bounds[t + 1]]`` in ascending
    order and ``slot`` is each id's index among its group's.
    """
    keys, inverse = np.unique(group * vocab_size + ids, return_inverse=True)
    bounds = keys.searchsorted(np.arange(group[-1] + 2) * vocab_size)
    return keys % vocab_size, inverse - bounds[group], bounds.tolist()


def _contrastive(h, w_out, out_ids, sign, scored):
    """Summed loss of E examples, d(loss)/d(score) per draw, and d(loss)/dh.

    Row e of ``out_ids`` holds example e's target, then its k noise words,
    each scored against ``h[e]``. The loss is softplus(-score) for the target
    and softplus(score) for a noise word. ``sign`` is -1 for the target, 1
    for a noise word and 0 for a noise word equal to its target, which is
    skipped (a repeated one counts twice); ``scored`` marks the draws that
    are not skipped.
    """
    w = w_out.take(out_ids, axis=0)  # (E, 1 + k, dim)
    # d(loss)/d(score) = sign * sigmoid(sign * score)
    z = sign * np.einsum("ed,ejd->ej", h, w)
    g = sign * (0.5 + 0.5 * np.tanh(0.5 * z))
    return float(np.logaddexp(0.0, z)[scored].sum()), g, np.einsum("ej,ejd->ed", g, w)


def _steps(w_in, w_out, ids, ops, out_ids, lr, vocab_size: int) -> list:
    """One SGD step per tweet of a block, in order; returns each tweet's summed loss.

    ``ids`` holds the block's tweets one after another and ``ops`` the
    ``_examples`` operator of each; ``out_ids`` and ``lr`` hold the target and
    noise ids and the learning rate of every example, tweet after tweet. What
    does not read the tables is computed first, once for the block: the sign
    of each draw and the draws the loss counts (``_contrastive``), each
    tweet's distinct rows of either table, and the slots of its ids and draws
    among them. Then each tweet's examples read the tables as they were before
    its step, and each distinct row of either table is written once.
    """
    sign = np.where(out_ids == out_ids[:, :1], 0.0, 1.0)  # 0: a noise word equal to its target
    sign[:, 0] = -1.0
    scored = sign != 0.0
    tweet = np.arange(len(ops))
    id_tweet = np.repeat(tweet, [op.shape[1] for op in ops])
    rows, slot, row_bounds = _distinct(id_tweet, ids, vocab_size)
    draw_tweet = np.repeat(tweet, [len(op) * out_ids.shape[1] for op in ops])
    out_rows, out_slot, out_bounds = _distinct(draw_tweet, out_ids.ravel(), vocab_size)
    out_slot = out_slot.reshape(out_ids.shape)
    losses = []
    id_at = example_at = 0
    for t, op in enumerate(ops):
        n = op.shape[1]
        tweet_ids = slice(id_at, id_at + n)
        mine = slice(example_at, example_at + len(op))  # the tweet's examples
        x = w_in.take(ids[tweet_ids], axis=0)  # (n, dim)
        loss, g, dh = _contrastive(op @ x, w_out, out_ids[mine], sign[mine], scored[mine])
        in_rows = rows[row_bounds[t]:row_bounds[t + 1]]
        one_hot = slot[tweet_ids] == np.arange(len(in_rows))[:, None]
        w_in[in_rows] -= (one_hot @ op.T) @ (lr[mine, None] * dh)
        # m[u, l] sums lr[e] * g[e, j] * op[e, l] over the draws (e, j) of
        # to_rows[u], so row u of m @ x sums lr[e] * g[e, j] * h[e] over them
        to_rows = out_rows[out_bounds[t]:out_bounds[t + 1]]
        flat = out_slot[mine, :, None] * n + np.arange(n)
        weights = (lr[mine, None] * g)[:, :, None] * op[:, None, :]
        m = np.bincount(flat.ravel(), weights.ravel(), len(to_rows) * n)
        w_out[to_rows] -= m.reshape(len(to_rows), n) @ x
        losses.append(loss)
        id_at += n
        example_at += len(op)
    return losses


def train(
    corpus: Sequence[EncodedExample],
    vocab_size: int,
    cfg: EmbeddingConfig,
    seed: int = 0,
) -> EmbeddingMatrix:
    """Train word vectors over an encoded corpus, one SGD step per tweet.

    Every position of a tweet of two or more ids is a window. The learning
    rate decays linearly from ``initial_lr`` to a tenth of it over all
    windows; each example gets the rate of its window. Returns the matrix
    pair with per-epoch mean losses (per window for CBOW, per pair for
    skip-gram) attached.

    Each epoch walks the corpus in blocks of whole tweets of about
    ``BLOCK_EXAMPLES`` examples: the learning rates and ``_block`` prepare a
    block, and ``_steps`` takes its tweets' steps. Operators come from a
    memo keyed by tweet length.
    """
    if vocab_size < 1:
        raise ValueError("vocabulary is empty")
    if not corpus:
        raise ValueError("corpus is empty")
    init_rng = derived_rng(seed, "embedding-init")
    w_in = init_rng.uniform(-0.5 / cfg.dim, 0.5 / cfg.dim, size=(vocab_size, cfg.dim))
    w_out = np.zeros((vocab_size, cfg.dim), dtype=np.float64)
    cum = _noise_table(corpus, vocab_size)

    tweets = [ex.ids for ex in corpus if len(ex.ids) >= 2]  # a one-token tweet has no window
    examples = {  # tweet length -> operator, target and center positions
        n: _examples(np.arange(n), cfg.window, cfg.objective == "skipgram")
        for n in {len(ids) for ids in tweets}
    }
    counts = np.array([len(examples[len(ids)][0]) for ids in tweets], dtype=np.intp)
    # a tweet opens a block when the examples before it pass a multiple of BLOCK_EXAMPLES
    before = np.cumsum(counts) - counts
    bounds = np.flatnonzero(np.diff(before // BLOCK_EXAMPLES, prepend=-1)).tolist() + [len(tweets)]
    total_steps = max(cfg.epochs * sum(len(ids) for ids in tweets), 1)

    rng = derived_rng(seed, "embedding-train")
    losses = []
    step = 0
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        for a, b in zip(bounds, bounds[1:]):
            ids, ops, position, out_ids = _block(tweets[a:b], examples, cfg.negatives, cum, rng)
            lr = cfg.initial_lr * (
                1.0 - (1.0 - LR_FINAL_FRACTION) * (step + position) / max(total_steps - 1, 1)
            )
            for loss in _steps(w_in, w_out, ids, ops, out_ids, lr, vocab_size):
                epoch_loss += loss  # tweet by tweet: a block subtotal rounds otherwise
            step += len(ids)
        losses.append(epoch_loss / max(int(counts.sum()), 1))
    return EmbeddingMatrix(w_in, w_out, losses)


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


def _check_row(line: str, lineno: int, dim: int) -> None:
    """Raise the defect of one row line of a vectors file, if it has one.

    A row holds a word and ``dim`` values, one space apart. It may not hold
    U+001C..U+001F: ``np.loadtxt`` strips them around a value, where
    ``float()`` rejects them.
    """
    if line.count(" ") != dim:
        raise ValueError(f"expected {dim + 1} columns, got {line.count(' ') + 1}, line {lineno}")
    if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
        char = next(c for c in line if "\x1c" <= c <= "\x1f")
        raise ValueError(f"control character U+{ord(char):04X}, line {lineno}")


def _rows(fh, v: int, dim: int, words: list):
    """Yield each row line of a vectors file and append its word to ``words``.

    Checks every row (``_check_row``) and, once the file is drained, the row
    count, so a file with no rows fails here before a parser sees it empty.
    """
    for lineno, line in enumerate(fh, start=2):
        _check_row(line, lineno, dim)
        words.append(line.partition(" ")[0].rstrip("\n"))
        yield line
    if len(words) != v:
        raise ValueError(f"header declares {v} rows but file has {len(words)}")


def _values(rows, dim: int, v: int) -> np.ndarray:
    """The ``dim`` values of each of up to ``v`` row lines, parsed by ``np.loadtxt``."""
    return np.loadtxt(
        rows,
        comments=None,  # a word may start with "#"
        delimiter=" ",
        usecols=range(1, dim + 1),
        dtype=np.float64,
        ndmin=2,
        max_rows=v,  # allocated once at the declared size, not grown row block by block
    )


def _check_lines(text: str, values: bool = False) -> None:
    """Raise the first defect of ``text``, the lines of a vectors file, naming its line.

    Checks the header and each row, and with ``values`` also parses each
    row's values on its own: ``np.loadtxt`` names a bad value by its row
    among those it parsed, not by its line. The readers decode ahead of the
    rows they have checked, so this puts a defect above an invalid byte
    first. Error paths only call it. The row count is not checked: only a
    drained file can fail it.
    """
    fh = io.StringIO(text, newline=None)  # the readers' universal newlines
    _, dim = _read_header(fh)
    for lineno, line in enumerate(fh, start=2):
        _check_row(line, lineno, dim)
        if values and dim:
            try:
                _values([line], dim, 1)
            except ValueError as exc:
                where = re.sub(r" at row \d+, (column \d+)\.$", r", \1", str(exc))
                raise ValueError(f"{where}, line {lineno}") from None


def _check_text(text: str) -> None:
    """``_check_lines`` with the values, for ``load_text``."""
    _check_lines(text, values=True)


def _vocabulary(words: list) -> Vocabulary:
    """The words in file order, after the reserved words the file lacks."""
    if words[:2] != [PAD_TOKEN, UNK_TOKEN]:
        words = [w for w in (PAD_TOKEN, UNK_TOKEN) if w not in words] + words
    return Vocabulary(words, {w: 0 for w in words})


def load_words(path) -> Vocabulary:
    """The vocabulary of a text-format vectors file, without parsing its values.

    Checks the header, the row count and the columns of every row as
    ``load_text`` does. Files produced elsewhere may lack the reserved
    pad/unknown words; those get prepended so ids 0/1 keep their meaning.
    """
    words = []
    with open(path, encoding="utf-8") as fh, utf8_line_errors(path, check_before=_check_lines):
        v, dim = _read_header(fh)
        for _ in _rows(fh, v, dim, words):
            pass
    return _vocabulary(words)


def load_text(path) -> tuple[EmbeddingMatrix, Vocabulary]:
    """Load text-format vectors; returns input vectors only plus the vocabulary.

    The file is read once: ``np.loadtxt`` parses the values of the rows that
    the ``load_words`` checks pass, into one array of the row count the
    header declares. The reserved words ``load_words`` prepends get zero
    vectors.
    """
    words = []
    with open(path, encoding="utf-8") as fh, utf8_line_errors(path, check_before=_check_text):
        v, dim = _read_header(fh)
        rows = _rows(fh, v, dim, words)
        if v and dim:  # else no values: loadtxt would warn (V 0) or drop empty words (dim 0)
            try:
                w_in = _values(rows, dim, v)
            except ValueError:
                with open(path, encoding="utf-8") as again:
                    _check_text(again.read())  # names the line of a bad value
                raise
        else:
            w_in = np.zeros((v, dim))
        for _ in rows:  # any rows past the declared count: _rows rejects them once drained
            pass
    vocab = _vocabulary(words)
    reserved = len(vocab) - v
    if reserved:
        w_in = np.vstack([np.zeros((reserved, dim)), w_in])
    return EmbeddingMatrix(w_in, None), vocab
