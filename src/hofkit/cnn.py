"""Convolutional tweet classifier.

Architecture: embedding lookup -> three parallel filter banks (window
heights 3/4/5, one-stride convolution, ReLU) -> max-pool per filter ->
concatenate -> dense ReLU layer -> single sigmoid output giving P(HOF).

The embedding table is a trainable parameter (fine-tuned end to end); its
pad row is pinned to zero. All gradients are hand-derived; training uses
Adam on mean-batch binary cross-entropy. The embedding gradient is
row-sparse (``RowSparse``: the batch's distinct ids and one block of rows).
Adam holds the embedding's moments for the rows some batch has reached so far,
also as ``RowSparse``, and skips the other rows. The skip is exact: such a row
has zero moments and zero gradient, so its Adam step is ``lr * 0 / (0 + eps)``,
exactly zero for any ``eps > 0``. A step copies only the reached rows of the
table out and back; the moments grow when a batch reaches new rows. The
best-epoch snapshot, too, keeps only the reached rows of the table (see
``train_model``), so the table is the only array of V rows that training
holds. Dropout is inverted
(survivors scaled by 1/keep) at four sites: input word rows, pooled features
of each bank, and dense activations. The dense layer and the output form one
layer stack of ``layers.py``, which also holds the dropout formula and runs
the shuffled minibatch epoch; the conv banks, max-pool, early stopping and
Adam live here.

``make_masks`` draws a minibatch's masks with one ``rng.random`` call. The
uniforms are laid out tweet after tweet, and within a tweet as input (one per
padded position), bank3, bank4, bank5, dense: the order in which drawing one
tweet's masks at a time takes them, so a seed's masks do not depend on how
the draw is batched. The input masks, end to end, scale the packed positions;
the head's masks are one row per tweet.

The convolution projects each distinct id of a pass once through every bank
and offset (``_project``), and a window then sums the projections of its
words: a bank-h window at t is ``b + sum_j mask[t+j] * (emb[ids[t+j]] @
W_j.T)``, Kim's convolution with its sums taken in another order. Training and
inference lay the window sums out the same way (``_windows``): (tweets,
windows of the longest tweet, filters), with a shorter tweet's windows past
its last one repeating its last. A repeated window leaves the max as it is, so
one ``max`` over the windows axis pools every tweet exactly (``_window_pool``).

Each training batch runs as one pass over its tweets in minibatch order, which
the dropout masks follow. Backward takes, per (tweet, filter), the first
window whose ReLU value is the pooled max (never a repeated window), scatters
its gradient onto the projections that window read, and forms the conv and
embedding gradients from them with two products. Gradients are reduced over
the batch in a fixed order, so a fixed seed reproduces runs bitwise.

Inference takes up to ``INFER_BLOCK`` tweets at a time and projects each
distinct id of the block once, bank by bank, in slices of at most
``INFER_SLICE`` filters (all offsets of those filters), so the largest
temporary is (distinct ids) x 5 x ``INFER_SLICE``. It sorts the block's tweets
by padded length and pools each run of ``INFER_BATCH`` of them in that order,
so a run pads little; the pooled rows go back to the tweets' places in the
block, and the dense head runs once per block. Inference never mutates the
model and is safe to run concurrently; training is single-writer.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus import EncodedExample, PAD_ID, Vocabulary
from .fileio import atomic_open
from .layers import dense_backward, dense_forward, dropout_mask, run_epoch
from .metrics import macro_f1
from .seeding import derived_rng

__all__ = [
    "FILTER_HEIGHTS",
    "M_MIN",
    "INFER_BATCH",
    "INFER_BLOCK",
    "INFER_SLICE",
    "DropoutSpec",
    "CnnConfig",
    "TrainConfig",
    "CnnModel",
    "embedding_table",
    "RowSparse",
    "Adam",
    "bce_loss",
    "train_model",
    "save_checkpoint",
    "load_checkpoint",
    "vocab_hash",
]

FILTER_HEIGHTS = (3, 4, 5)
M_MIN = 5  # sequences are padded so the tallest filter always fits
PROB_CLAMP = 1e-7
INFER_BLOCK = 2048  # tweets per inference block: one np.unique, each distinct id projected once
INFER_SLICE = 64  # filters per inference projection: (distinct ids) x 5 x 64 at most
INFER_BATCH = 32  # tweets per padded window-sum and max-pool run of inference, in length order

PARAM_ORDER = (
    "emb",
    "conv3_w",
    "conv3_b",
    "conv4_w",
    "conv4_b",
    "conv5_w",
    "conv5_b",
    "dense_w",
    "dense_b",
    "out_w",
    "out_b",
)

CHECKPOINT_MAGIC = "hofkit-checkpoint-1"


@dataclass(frozen=True)
class DropoutSpec:
    """Drop rates per site (fraction of units zeroed during training)."""

    input: float = 0.5
    bank3: float = 0.5
    bank4: float = 0.2
    bank5: float = 0.2
    dense: float = 0.5

    def __post_init__(self):
        for name, rate in self.as_tuple_named():
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"dropout rate {name}={rate} outside [0, 1)")

    def as_tuple_named(self):
        return (
            ("input", self.input),
            ("bank3", self.bank3),
            ("bank4", self.bank4),
            ("bank5", self.bank5),
            ("dense", self.dense),
        )

    @classmethod
    def none(cls) -> "DropoutSpec":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class CnnConfig:
    embed_dim: int = 200
    filter_counts: tuple = (256, 256, 512)  # for heights 3, 4, 5
    dense_units: int = 256
    m_max: int = 64
    dropout: DropoutSpec = DropoutSpec()

    def __post_init__(self):
        c3, c4, c5 = self.filter_counts
        if not (c3 == c4 and c5 == 2 * c3 and c3 >= 1):
            raise ValueError(
                f"filter counts must keep the 1:1:2 ratio, got {self.filter_counts}"
            )
        if self.embed_dim < 1 or self.dense_units < 1:
            raise ValueError("embed_dim and dense_units must be >= 1")
        if self.m_max < M_MIN:
            raise ValueError(f"m_max must be >= {M_MIN}")

    @property
    def pooled_width(self) -> int:
        return sum(self.filter_counts)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        # Adam skips unreached embedding rows; their step is 0 / (0 + eps) only for eps > 0
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")


def _padded_length(n: int, m_max: int) -> int:
    """Rows of a tweet of n ids once truncated at m_max and padded to M_MIN."""
    return max(min(n, m_max), M_MIN)


def _pad_ids(ids: Sequence[int], m_max: int) -> np.ndarray:
    ids = list(ids)[:m_max]
    out = np.full(_padded_length(len(ids), m_max), PAD_ID, dtype=np.int64)
    out[: len(ids)] = ids
    return out


def _pack(id_lists: Sequence, m_max: int) -> tuple:
    """Padded tweets stacked end to end (no padding to a common length).

    Returns the ids and each tweet's padded length. Training and inference
    both read the windows of this layout through ``_windows``.
    """
    padded = [_pad_ids(ids, m_max) for ids in id_lists]
    lengths = np.array([len(t) for t in padded], dtype=np.int64)
    return np.concatenate(padded), lengths


def _windows(starts: np.ndarray, lengths: np.ndarray, h: int) -> np.ndarray:
    """Each tweet's bank-h window starts, as (tweets, windows of the longest tweet).

    ``starts`` and ``lengths`` give each tweet's first packed position and
    padded length. A tweet's windows past its last one repeat its last, so a
    max over the windows axis pools each tweet over its own windows only.
    """
    counts = lengths - h + 1
    return starts[:, None] + np.minimum(np.arange(counts.max()), counts[:, None] - 1)


def _project(emb_u: np.ndarray, filter_rows: np.ndarray) -> np.ndarray:
    """Every id row of ``emb_u`` through every filter offset of ``filter_rows``.

    ``filter_rows`` holds one (filters, embed_dim) block per window offset,
    laid out as ``CnnModel._filter_rows`` lays them out; so does each row of
    the result, one column per (offset, filter).
    """
    return emb_u @ filter_rows.T


def _window_pool(term, h: int, bias) -> tuple:
    """One bank's window sums and max-pool over a run of tweets.

    ``term(j)`` returns a fresh (tweets, windows, filters) array of the
    projections each window reads at offset j, scaled by any input mask. A
    window sums offsets 0..h-1 in order, then adds ``bias``; one term at a
    time is alive. Returns the pre-ReLU window values and the pooled ReLU
    maxima (tweets, filters).
    """
    z = term(0)
    for j in range(1, h):
        z += term(j)
    z += bias
    # ReLU is monotone, so it commutes with the max: pool, then clip
    return z, np.maximum(z.max(axis=1), 0.0)


def _param_shapes(cfg: CnnConfig, vocab_size: int) -> dict:
    """Shape of every parameter, in PARAM_ORDER."""
    n = cfg.embed_dim
    shapes = {"emb": (vocab_size, n)}
    for h, count in zip(FILTER_HEIGHTS, cfg.filter_counts):
        shapes[f"conv{h}_w"] = (count, h * n)
        shapes[f"conv{h}_b"] = (count,)
    shapes["dense_w"] = (cfg.pooled_width, cfg.dense_units)
    shapes["dense_b"] = (cfg.dense_units,)
    shapes["out_w"] = (cfg.dense_units,)
    shapes["out_b"] = (1,)
    return shapes


def bce_loss(p, y):
    """Elementwise binary cross-entropy, with p clamped away from 0 and 1."""
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(y * np.log(pc) + (1 - y) * np.log(1.0 - pc))


def embedding_table(values, dtype=np.float32) -> np.ndarray:
    """A copy of the pretrained table ``values`` in ``dtype``, with the pad row zeroed.

    Raises ValueError if a value is not finite or does not fit in ``dtype``.
    """
    with np.errstate(over="ignore"):  # a value out of dtype range becomes inf, caught below
        table = np.array(values, dtype=dtype)
    table[PAD_ID] = 0.0
    if not np.isfinite(table).all():
        raise ValueError(f"embedding values must be finite and fit in {np.dtype(dtype).name}")
    return table


class CnnModel:
    """Parameter container plus forward/backward passes.

    Parameters live in ``self.params`` under the fixed names of
    ``PARAM_ORDER``; optimizers update them in place.
    """

    def __init__(self, params: dict, cfg: CnnConfig):
        self.params = params
        self.cfg = cfg
        self._check_shapes()

    def _check_shapes(self):
        p = self.params
        for key, shape in _param_shapes(self.cfg, len(p["emb"])).items():
            if p[key].shape != shape:
                raise ValueError(f"{key} shape {p[key].shape} does not equal {shape}")

    @classmethod
    def init(
        cls,
        embedding: np.ndarray,
        cfg: CnnConfig,
        seed: int = 0,
        dtype=np.float32,
    ) -> "CnnModel":
        """Glorot-uniform weights, zero biases; embedding copied with pad row zeroed."""
        rng = derived_rng(seed, "cnn-init")
        params = {"emb": embedding_table(embedding, dtype)}
        for key, shape in list(_param_shapes(cfg, len(embedding)).items())[1:]:  # all but emb
            if key.endswith("_b"):
                params[key] = np.zeros(shape, dtype=dtype)
            else:  # fan-in + fan-out; out_w is one column, so its fan-out of 1 is implicit
                bound = np.sqrt(6.0 / (sum(shape) + (len(shape) == 1)))
                params[key] = rng.uniform(-bound, bound, size=shape).astype(dtype)
        return cls(params, cfg)

    @property
    def dtype(self):
        return self.params["emb"].dtype

    # -- dropout masks -----------------------------------------------------

    def make_masks(self, lengths: Sequence[int], rng: np.random.Generator) -> tuple:
        """A minibatch's scaled 0/(1/keep) masks, from one draw.

        ``lengths`` holds each tweet's padded length. Returns the input mask,
        shape (sum of lengths,), and the head's masks ``{0: (B, pooled_width),
        1: (B, dense_units)}``: the value ``batch_loss_grads`` takes.
        """
        cfg = self.cfg
        b = len(lengths)
        rates = np.array([rate for _, rate in cfg.dropout.as_tuple_named()])
        # per tweet, the widths of its sites: input, bank3, bank4, bank5, dense
        widths = np.column_stack(
            [lengths, np.tile([*cfg.filter_counts, cfg.dense_units], (b, 1))]
        ).ravel()
        site = np.repeat(np.tile(np.arange(len(rates)), b), widths)  # 0 = input word
        mask = dropout_mask(len(site), rates[site], rng, self.dtype)
        head = mask[site > 0].reshape(b, cfg.pooled_width + cfg.dense_units)
        return mask[site == 0], dict(enumerate(np.split(head, [cfg.pooled_width], axis=1)))

    # -- forward -----------------------------------------------------------

    def _filter_rows(self, h: int, lo: int, hi: int) -> np.ndarray:
        """Filters lo:hi of bank h as h row blocks, offset j's weights ``W_j`` in block j."""
        n = self.cfg.embed_dim
        w = self.params[f"conv{h}_w"][lo:hi]
        return w.reshape(hi - lo, h, n).transpose(1, 0, 2).reshape(-1, n)

    def _conv_weights(self) -> np.ndarray:
        """Every filter bank's weights as one (sum of h * count, embed_dim) matrix.

        The banks' ``_filter_rows`` stacked, so ``x @ conv_w.T`` projects a word
        row through every offset of every bank at once.
        """
        banks = zip(FILTER_HEIGHTS, self.cfg.filter_counts)
        return np.concatenate([self._filter_rows(h, 0, count) for h, count in banks])

    def _forward(self, id_lists: Sequence, masks: Optional[tuple] = None) -> tuple:
        """One pass over a batch: P(HOF) per tweet (float64) and the intermediates backward needs.

        ``masks`` is the batch's ``make_masks`` value, or None for no dropout.
        The tweets keep the batch's order, which the masks follow.
        """
        p, cfg = self.params, self.cfg
        ids, lengths = _pack(id_lists, cfg.m_max)
        starts = np.cumsum(lengths) - lengths
        input_mask, head_masks = (None, {}) if masks is None else masks
        conv_w = self._conv_weights()
        # each distinct id goes through every bank and offset once
        u, inv = np.unique(ids, return_inverse=True)
        emb_u = p["emb"][u]
        proj = _project(emb_u, conv_w)

        saved = {"u": u, "inv": inv, "emb_u": emb_u, "conv_w": conv_w, "starts": starts,
                 "input_mask": input_mask, "head_masks": head_masks, "ids": ids}
        pooled_parts = []
        col = 0
        for h, count in zip(FILTER_HEIGHTS, cfg.filter_counts):
            at = _windows(starts, lengths, h)

            def term(j):
                gathered = proj[inv[at + j], col + j * count : col + (j + 1) * count]
                if input_mask is not None:  # the gather is a fresh array: scale it in place
                    gathered *= input_mask[at + j][..., None]
                return gathered

            z, pooled = _window_pool(term, h, p[f"conv{h}_b"])
            col += h * count
            saved[h] = {"z": z, "pooled": pooled}
            pooled_parts.append(pooled)

        probs, acts, zs = self._dense_head(np.concatenate(pooled_parts, axis=1), head_masks)
        saved.update(acts=acts, zs=zs, zd=zs[0])
        return probs, saved

    def _dense_head(self, pooled: np.ndarray, head_masks: dict) -> tuple:
        """P(HOF) per pooled row (float64), with the head's saved activations."""
        acts, zs = dense_forward(pooled, self._head(), head_masks)
        logit = zs[1][:, 0].astype(np.float64)
        with np.errstate(over="ignore"):  # exp(-logit) = inf gives exactly 0.0
            return 1.0 / (1.0 + np.exp(-logit)), acts, zs

    def _block_proba(self, id_lists: Sequence) -> np.ndarray:
        """P(HOF) per tweet of one inference block; see the module docstring."""
        p, cfg = self.params, self.cfg
        ids, lengths = _pack(id_lists, cfg.m_max)
        u, inv = np.unique(ids, return_inverse=True)
        emb_u = p["emb"][u]
        starts = np.cumsum(lengths) - lengths
        order = np.argsort(lengths, kind="stable")  # a run of like lengths pads little
        pooled = np.empty((len(lengths), cfg.pooled_width), dtype=self.dtype)
        col = 0
        for h, count in zip(FILTER_HEIGHTS, cfg.filter_counts):
            runs = []  # per INFER_BATCH tweets in length order: them, and per offset their reads
            for r0 in range(0, len(order), INFER_BATCH):
                tweets = order[r0 : r0 + INFER_BATCH]
                at = _windows(starts[tweets], lengths[tweets], h)
                runs.append((tweets, [inv[at + j] * h + j for j in range(h)]))
            for lo in range(0, count, INFER_SLICE):
                hi = min(lo + INFER_SLICE, count)
                # row id * h + j holds that id's projection at offset j, contiguous
                proj = _project(emb_u, self._filter_rows(h, lo, hi)).reshape(-1, hi - lo)
                bias = p[f"conv{h}_b"][lo:hi]
                for tweets, reads in runs:
                    pooled[tweets, col + lo : col + hi] = _window_pool(
                        lambda j: proj.take(reads[j], axis=0), h, bias)[1]
                del proj  # else it lives on while the next slice's is computed
            col += count
        return self._dense_head(pooled, {})[0]

    def _head(self) -> list:
        """The dense ReLU layer and the output logit as one layer stack."""
        p = self.params
        return [(p["dense_w"], p["dense_b"]), (p["out_w"][:, None], p["out_b"])]

    def predict_proba(self, id_lists: Sequence[Sequence[int]]) -> np.ndarray:
        """P(HOF) per encoded tweet, computed INFER_BLOCK tweets at a time.

        Raises ValueError if a probability is not finite, as parameters whose
        products overflow (say, from a corrupt checkpoint) give.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            chunks = [
                self._block_proba(id_lists[i : i + INFER_BLOCK])
                for i in range(0, len(id_lists), INFER_BLOCK)
            ]
        probs = np.concatenate(chunks) if chunks else np.zeros(0)
        if not np.isfinite(probs).all():
            raise ValueError("the model gives a non-finite probability: its parameters overflow")
        return probs

    def predict_batch(self, examples: Sequence[EncodedExample]) -> list:
        """1 (HOF) per tweet whose probability is >= 0.5, else 0 (NOT)."""
        return (self.predict_proba([ex.ids for ex in examples]) >= 0.5).astype(int).tolist()

    # -- loss and gradients ------------------------------------------------

    def batch_loss(self, batch: Sequence[EncodedExample], masks: Optional[tuple] = None) -> float:
        """Mean BCE over a batch, with optional fixed ``make_masks`` dropout masks."""
        probs, _ = self._forward([ex.ids for ex in batch], masks)
        return float(np.mean(bce_loss(probs, np.array([ex.label for ex in batch]))))

    def batch_loss_grads(
        self, batch: Sequence[EncodedExample], masks: Optional[tuple] = None
    ) -> tuple:
        """Mean loss and exact gradients of it for every parameter group.

        Max-pool routes gradient only to the (first) argmax position; dropout
        masks are the ones used in the forward pass; the embedding gradient
        holds the pass's distinct ids, and the pad row stays at zero.
        """
        p, cfg = self.params, self.cfg
        probs, saved = self._forward([ex.ids for ex in batch], masks)
        y = np.array([ex.label for ex in batch])
        loss = float(np.mean(bce_loss(probs, y)))
        if not np.isfinite(loss):  # NaN activations match no pooled max: no argmax to route to
            return loss, {}

        # d(mean loss)/d(logit) per example; zero where the clamp in bce_loss was active
        inside = (probs > PROB_CLAMP) & (probs < 1.0 - PROB_CLAMP)
        dlogit = (np.where(inside, probs - y, 0.0) / len(batch)).astype(self.dtype)
        ((dense_w, dense_b), (out_w, out_b)), dpooled_all = dense_backward(
            dlogit[:, None], self._head(), saved["acts"], saved["zs"], saved["head_masks"]
        )
        grads = {"dense_w": dense_w, "dense_b": dense_b, "out_w": out_w.ravel(), "out_b": out_b}

        # dz is non-zero only at each (tweet, filter) argmax window; scatter it,
        # times the input mask, onto the projection of every id the window reads
        u, inv, input_mask, starts = saved["u"], saved["inv"], saved["input_mask"], saved["starts"]
        width = len(saved["conv_w"])
        targets, values = [], []
        offset = col = 0
        for h, count in zip(FILTER_HEIGHTS, cfg.filter_counts):
            dpooled = dpooled_all[:, offset : offset + count]
            offset += count
            z, pooled = saved[h].pop("z"), saved[h]["pooled"]
            # the first window whose ReLU value is the pooled max: never a repeated
            # window, and where the max is 0 the tweet's first window, not z's argmax
            start = starts[:, None] + np.maximum(z, 0.0, out=z).argmax(axis=1)
            del z  # before d_proj is allocated
            cols = np.arange(count)
            dz = dpooled * (pooled > 0)
            grads[f"conv{h}_b"] = dz.sum(axis=0)
            for j in range(h):
                targets.append(inv[start + j] * width + col + cols)
                values.append(dz if input_mask is None else dz * input_mask[start + j])
                col += count
        # d_proj, conv_w and the scatter's operands are the step's largest arrays:
        # each is allocated as late and dropped as early as its products allow
        targets = np.concatenate(targets, axis=None)
        values = np.concatenate(values, axis=None)
        d_proj = np.zeros((len(u), width), dtype=self.dtype)
        np.add.at(d_proj.reshape(-1), targets, values)
        del targets, values

        d_emb = d_proj @ saved.pop("conv_w")
        d_emb[u == PAD_ID] = 0.0
        grads["emb"] = RowSparse(u, d_emb, p["emb"].shape)
        n = cfg.embed_dim
        d_conv_w = d_proj.T @ saved["emb_u"]  # laid out as _conv_weights
        del d_proj
        row = 0
        for h, count in zip(FILTER_HEIGHTS, cfg.filter_counts):
            block = d_conv_w[row : row + h * count]
            grads[f"conv{h}_w"] = block.reshape(h, count, n).transpose(1, 0, 2).reshape(count, -1)
            row += h * count
        return loss, grads


@dataclass(frozen=True, eq=False)
class RowSparse:
    """An array that is zero outside a few rows of a (rows x ...) shape.

    ``rows`` holds sorted distinct row ids and ``values`` their rows, in the
    same order. ``np.asarray`` scatters it into the dense array. The embedding
    gradient takes this form, and so do ``Adam``'s moments of the embedding.
    """

    rows: np.ndarray
    values: np.ndarray
    shape: tuple

    @classmethod
    def zeros_like(cls, x: np.ndarray) -> "RowSparse":
        """All zeros in the shape and dtype of ``x``: no rows."""
        return cls(np.zeros(0, dtype=np.intp), np.zeros((0,) + x.shape[1:], dtype=x.dtype),
                   x.shape)

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape, dtype=self.values.dtype if dtype is None else dtype)
        dense[self.rows] = self.values
        return dense


class Adam:
    """Adam optimizer over the model's parameter dict; updates in place.

    Every moment starts as a ``RowSparse`` with no rows. While a parameter's
    gradients are ``RowSparse``, its moments hold only the rows that some
    gradient of it has reached so far. A step that reaches new rows grows them
    (the union of the rows, the old values scattered into zeros). Each step
    updates every reached row, whether or not its gradient holds the row: it
    copies the parameter's rows out and back and updates the moments where
    they lie. A dense gradient makes the moments dense for good, and a later
    ``RowSparse`` gradient is then scattered dense. Either way the bytes are
    the dense step's: an unreached row has m = v = 0 and g = 0, so its step is
    0 / (0 + eps) = 0; and ``np.asarray`` of compact moments gives the dense
    ones.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: RowSparse.zeros_like(v) for k, v in params.items()}
        self.v = {k: RowSparse.zeros_like(v) for k, v in params.items()}

    def step(self, grads):
        self.t += 1
        for k in PARAM_ORDER:
            g, m, v = grads[k], self.m[k], self.v[k]
            if not (isinstance(g, RowSparse) and isinstance(m, RowSparse)):
                if isinstance(m, RowSparse):
                    m, v = self.m[k], self.v[k] = np.asarray(m), np.asarray(v)
                self._update(self.params[k], np.asarray(g), m, v)
                continue
            m, v = self._reach(k, g.rows)
            g_rows = np.zeros((len(m.rows),) + g.values.shape[1:], dtype=g.values.dtype)
            g_rows[np.searchsorted(m.rows, g.rows)] = g.values
            param = self.params[k][m.rows]
            self._update(param, g_rows, m.values, v.values)
            self.params[k][m.rows] = param

    def _reach(self, k, rows) -> tuple:
        """The compact moments of ``k``, grown to hold ``rows`` where they do not yet."""
        m, v = self.m[k], self.v[k]
        # not np.unique: NumPy 2.x finds unique ints with a hash table, about 10x this sort
        both = np.sort(np.concatenate([m.rows, rows]))
        first = np.ones(len(both), dtype=bool)  # each row's first copy, as long as both if empty
        first[1:] = both[1:] != both[:-1]
        union = both[first]
        if len(union) > len(m.rows):
            at = np.searchsorted(union, m.rows)
            grown = []
            for moment in (m, v):
                values = np.zeros((len(union),) + moment.shape[1:], dtype=moment.values.dtype)
                values[at] = moment.values
                grown.append(RowSparse(union, values, moment.shape))
            m, v = self.m[k], self.v[k] = grown
        return m, v

    def _update(self, param, g, m, v):
        """One Adam step of ``param``, ``m`` and ``v``, in place, at step ``self.t``."""
        b1, b2 = self.beta1, self.beta2
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**self.t)
        v_hat = v / (1.0 - b2**self.t)
        # lr * m_hat / (sqrt(v_hat) + eps), in place so only two temporaries live
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.eps
        m_hat *= self.lr
        m_hat /= v_hat
        param -= m_hat


def train_model(
    model: CnnModel,
    train_ex: Sequence[EncodedExample],
    val_ex: Sequence[EncodedExample],
    cfg: TrainConfig,
) -> list:
    """Adam training with per-epoch validation macro-F1 and early stopping.

    Keeps the best-on-validation weights; stops once the number of
    consecutive epochs without improvement reaches ``patience`` (so
    patience=0 runs exactly one epoch). Returns history rows
    ``(epoch, train_loss, val_macro_f1)``.

    The best-epoch snapshot holds full copies of the parameters other than
    the embedding, and of the embedding only the rows some gradient has
    reached. A row that no gradient has reached still holds its initial
    value. A row first reached after the snapshot is logged with its value
    before its first Adam step, which is its value at the snapshot. The log
    is cleared at each snapshot, so the snapshot and the log never hold a row
    twice and together hold at most one table. The restore writes the log
    back, then the snapshot; the restored bytes are those of a full copy.
    """
    if not train_ex:
        raise ValueError("training set is empty")
    if not val_ex:
        raise ValueError("validation set is empty")
    if any(ex.label is None for ex in train_ex) or any(
        ex.label is None for ex in val_ex
    ):
        raise ValueError("training and validation examples must be labelled")

    shuffle_rng = derived_rng(cfg.seed, "cnn-shuffle")
    dropout_rng = derived_rng(cfg.seed, "cnn-dropout")
    adam = Adam(model.params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)

    emb = model.params["emb"]
    reached = np.zeros(len(emb), dtype=bool)  # rows some gradient has reached
    log = []  # (rows, values before their first step) of rows first reached since the snapshot

    def loss_grads(idx):
        batch = [train_ex[int(i)] for i in idx]
        lengths = [_padded_length(len(ex.ids), model.cfg.m_max) for ex in batch]
        return model.batch_loss_grads(batch, model.make_masks(lengths, dropout_rng))

    def step(grads):
        rows = grads["emb"].rows
        first = rows[~reached[rows]]
        if len(first):  # Adam changes a reached row on every step, so log it before this one
            log.append((first, emb[first]))
            reached[first] = True
        adam.step(grads)

    best_f1 = -1.0
    best_params = {key: value.copy() for key, value in model.params.items() if key != "emb"}
    best_rows = np.flatnonzero(reached)
    best_emb = emb[best_rows]
    since_improve = 0
    history = []
    for epoch in range(1, cfg.epochs + 1):
        train_loss = run_epoch(len(train_ex), cfg.batch_size, shuffle_rng, loss_grads, step, epoch)
        val_preds = model.predict_batch(val_ex)
        val_f1 = macro_f1(val_preds, [ex.label for ex in val_ex])
        history.append((epoch, float(train_loss), float(val_f1)))

        if val_f1 > best_f1:
            best_f1 = val_f1
            for key in best_params:  # in place: a fresh copy would live beside the old one
                best_params[key][...] = model.params[key]
            log.clear()
            del best_rows, best_emb  # before the new snapshot, not beside it
            best_rows = np.flatnonzero(reached)
            best_emb = emb[best_rows]
            since_improve = 0
        else:
            since_improve += 1
        if since_improve >= cfg.patience:
            break
    for rows, values in log:
        emb[rows] = values
    emb[best_rows] = best_emb
    for key, value in best_params.items():
        model.params[key][...] = value
    return history


def vocab_hash(vocab: Vocabulary) -> str:
    """Stable fingerprint of the word list in id order."""
    payload = "\n".join(vocab.words).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def save_checkpoint(model: CnnModel, path, vocab_fingerprint: str = "") -> None:
    """Text manifest plus flat little-endian float32 arrays in declared order."""
    cfg = model.cfg
    d = cfg.dropout
    lines = [
        f"format {CHECKPOINT_MAGIC}",
        f"vocab_size {model.params['emb'].shape[0]}",
        f"embed_dim {cfg.embed_dim}",
        "filter_counts " + ",".join(str(cnt) for cnt in cfg.filter_counts),
        f"pooled_width {cfg.pooled_width}",
        f"dense_units {cfg.dense_units}",
        f"m_max {cfg.m_max}",
        "dropout "
        + ",".join(repr(rate) for _, rate in d.as_tuple_named()),
        f"vocab_hash {vocab_fingerprint}",
        "end",
    ]
    with atomic_open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        for key in PARAM_ORDER:
            # the array's own buffer: tobytes() would copy the table once more
            fh.write(memoryview(np.ascontiguousarray(model.params[key], dtype="<f4")).cast("B"))


_MANIFEST_KEYS = (
    "format",
    "vocab_size",
    "embed_dim",
    "filter_counts",
    "pooled_width",
    "dense_units",
    "m_max",
    "dropout",
    "vocab_hash",
)


def _manifest_values(manifest: dict, key: str, parse, arity: int) -> tuple:
    """The comma-separated values of one manifest key; ValueError names a bad key."""
    try:
        values = tuple(parse(x) for x in manifest[key].split(","))
    except ValueError:
        values = ()
    if len(values) != arity:
        raise ValueError(
            f"checkpoint manifest key {key!r} needs {arity} number(s), got {manifest[key]!r}"
        )
    return values


def load_checkpoint(path, vocab: Optional[Vocabulary] = None) -> CnnModel:
    """Rebuild a model from a checkpoint; warns if the vocab hash disagrees."""
    with open(path, "rb") as fh:
        manifest = {}
        while True:
            line = fh.readline()
            if not line:
                raise ValueError("truncated checkpoint: manifest has no end marker")
            try:
                text = line.decode("utf-8").rstrip("\n")
            except UnicodeDecodeError as exc:
                raise ValueError(f"checkpoint manifest is not UTF-8 text: {exc.reason}") from None
            if text == "end":
                break
            key, _, value = text.partition(" ")
            manifest[key] = value

        missing = [key for key in _MANIFEST_KEYS if key not in manifest]
        if missing:
            raise ValueError(f"checkpoint manifest lacks key {missing[0]!r}")
        if manifest["format"] != CHECKPOINT_MAGIC:
            raise ValueError(f"unknown checkpoint format {manifest['format']!r}")
        vocab_size, embed_dim, pooled_width, dense_units, m_max = (
            _manifest_values(manifest, key, int, 1)[0]
            for key in ("vocab_size", "embed_dim", "pooled_width", "dense_units", "m_max")
        )
        if vocab_size < 2:  # every vocabulary holds the pad and unknown rows
            raise ValueError(
                f"checkpoint manifest key 'vocab_size' must be >= 2, got {vocab_size}")
        counts = _manifest_values(manifest, "filter_counts", int, len(FILTER_HEIGHTS))
        if pooled_width != sum(counts):
            raise ValueError(f"{sum(counts)} expected for pooled width, got {pooled_width}")
        rates = _manifest_values(manifest, "dropout", float, len(DropoutSpec().as_tuple_named()))
        cfg = CnnConfig(
            embed_dim=embed_dim,
            filter_counts=counts,
            dense_units=dense_units,
            m_max=m_max,
            dropout=DropoutSpec(*rates),
        )

        # each parameter is read straight into its own array: no blob beside them
        shapes = _param_shapes(cfg, vocab_size)
        expected = sum(int(np.prod(shapes[k])) for k in PARAM_ORDER) * 4
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise ValueError(
                f"parameter blob length mismatch: expected {expected} bytes, got {size}"
            )
        params = {}
        for key in PARAM_ORDER:
            params[key] = np.empty(shapes[key], dtype="<f4")
            got = fh.readinto(memoryview(params[key]).cast("B"))
            if got != params[key].nbytes:  # the file shrank since fstat
                raise ValueError(f"truncated checkpoint: parameter {key} is short")

    if vocab is not None and manifest["vocab_hash"]:
        if vocab_hash(vocab) != manifest["vocab_hash"]:
            warnings.warn("checkpoint vocab hash does not match the provided vocabulary")
    return CnnModel(params, cfg)
