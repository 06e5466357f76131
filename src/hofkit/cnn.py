"""Convolutional tweet classifier.

Architecture: embedding lookup -> three parallel filter banks (window
heights 3/4/5, one-stride convolution, ReLU) -> max-pool per filter ->
concatenate -> dense ReLU layer -> single sigmoid output giving P(HOF).

The embedding table is a trainable parameter (fine-tuned end to end); its
pad row is pinned to zero. All gradients are hand-derived; training uses
Adam on mean-batch binary cross-entropy. Dropout is inverted (survivors
scaled by 1/keep) at four sites: input word rows, pooled features of each
bank, and dense activations. The dense layer and the output form one layer
stack of ``layers.py``, which also draws the dropout masks and runs the
shuffled minibatch epoch; the conv banks, max-pool, early stopping and Adam
live here.

Each batch runs as one packed pass over its padded tweets stacked end to end;
gradients are reduced over the batch in a fixed order, so a fixed seed
reproduces runs bitwise. Inference never mutates the model and is safe to
run concurrently; training is single-writer.
"""

from __future__ import annotations

import hashlib
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
    "DropoutSpec",
    "CnnConfig",
    "TrainConfig",
    "CnnModel",
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
INFER_BATCH = 32  # tweets per packed inference pass; bounds the window matrices

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
        if self.epochs < 1 or self.batch_size < 1 or self.lr <= 0:
            raise ValueError("epochs, batch_size, and lr must be positive")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")


def _pad_ids(ids: Sequence[int], m_max: int) -> np.ndarray:
    ids = list(ids)[:m_max]
    m = max(len(ids), M_MIN)
    out = np.full(m, PAD_ID, dtype=np.int64)
    out[: len(ids)] = ids
    return out


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


def _first_argmax(bank: dict) -> np.ndarray:
    """Per tweet and filter, the least window whose ReLU value equals the pooled max.

    ``bank`` is one filter height's entry of the saved forward intermediates;
    the result holds packed window indices, shape (tweets, filters).
    """
    z, pooled, first = bank["z"], bank["pooled"], bank["first"]
    window = np.arange(len(z))[:, None]
    hits = np.maximum(z, 0.0) == np.repeat(pooled, bank["counts"], axis=0)
    return np.minimum.reduceat(np.where(hits, window, len(z)), first, axis=0)


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
        with np.errstate(over="ignore"):  # a value out of dtype range becomes inf, caught below
            params = {"emb": np.array(embedding, dtype=dtype)}
        params["emb"][PAD_ID] = 0.0
        if not np.isfinite(params["emb"]).all():
            raise ValueError(
                f"embedding values must be finite and fit in {np.dtype(dtype).name}"
            )
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

    def copy_params(self) -> dict:
        return {k: v.copy() for k, v in self.params.items()}

    def set_params(self, params: dict) -> None:
        for k in PARAM_ORDER:
            self.params[k][...] = params[k]

    # -- dropout masks -----------------------------------------------------

    def make_masks(self, m: int, rng: np.random.Generator) -> dict:
        """Scaled 0/(1/keep) masks for one example of padded length m."""
        d = self.cfg.dropout
        masks = {"input": dropout_mask(m, d.input, rng, self.dtype)}
        for h, count, rate in zip(
            FILTER_HEIGHTS, self.cfg.filter_counts, (d.bank3, d.bank4, d.bank5)
        ):
            masks[f"bank{h}"] = dropout_mask(count, rate, rng, self.dtype)
        masks["dense"] = dropout_mask(self.cfg.dense_units, d.dense, rng, self.dtype)
        return masks

    # -- forward -----------------------------------------------------------

    def _forward(self, id_lists: Sequence, masks: Optional[Sequence] = None) -> tuple:
        """P(HOF) per tweet (float64) and the intermediates backward needs.

        ``masks`` holds one ``make_masks`` dict per tweet, or None for inference.
        """
        p, cfg = self.params, self.cfg
        n = cfg.embed_dim
        padded = [_pad_ids(ids, cfg.m_max) for ids in id_lists]
        lengths = np.array([len(t) for t in padded])
        ids = np.concatenate(padded)  # no padding to a common length
        # rows from each position to the end of its tweet: a window fits if >= h
        room = np.concatenate([np.arange(len(t), 0, -1) for t in padded])
        input_mask, head_masks = None, {}
        if masks is not None:  # input masks end to end; the head's masks one row per tweet
            input_mask = np.concatenate([mk["input"] for mk in masks])[:, None]
            banks = [np.stack([mk[f"bank{h}"] for mk in masks]) for h in FILTER_HEIGHTS]
            head_masks = {
                0: np.concatenate(banks, axis=1),
                1: np.stack([mk["dense"] for mk in masks]),
            }
        x = p["emb"][ids]
        if input_mask is not None:
            x = x * input_mask

        saved = {"ids": ids, "input_mask": input_mask, "head_masks": head_masks}
        pooled_parts = []
        for h in FILTER_HEIGHTS:
            rows = np.flatnonzero(room >= h)  # window starts
            s = x[rows[:, None] + np.arange(h)].reshape(len(rows), h * n)
            z = s @ p[f"conv{h}_w"].T + p[f"conv{h}_b"]
            counts = lengths - h + 1
            first = np.cumsum(counts) - counts
            # ReLU is monotone, so it commutes with the max: pool, then clip
            pooled = np.maximum(np.maximum.reduceat(z, first, axis=0), 0.0)
            saved[h] = {"rows": rows, "s": s, "z": z, "pooled": pooled, "first": first,
                        "counts": counts}
            pooled_parts.append(pooled)

        acts, zs = dense_forward(np.concatenate(pooled_parts, axis=1), self._head(), head_masks)
        logit = zs[1][:, 0].astype(np.float64)
        saved.update(acts=acts, zs=zs, zd=zs[0])
        with np.errstate(over="ignore"):  # exp(-logit) = inf gives exactly 0.0
            return 1.0 / (1.0 + np.exp(-logit)), saved

    def _head(self) -> list:
        """The dense ReLU layer and the output logit as one layer stack."""
        p = self.params
        return [(p["dense_w"], p["dense_b"]), (p["out_w"][:, None], p["out_b"])]

    def predict_proba(self, id_lists: Sequence[Sequence[int]]) -> np.ndarray:
        """P(HOF) per encoded tweet, computed INFER_BATCH tweets at a time."""
        chunks = [
            self._forward(id_lists[i : i + INFER_BATCH])[0]
            for i in range(0, len(id_lists), INFER_BATCH)
        ]
        return np.concatenate(chunks) if chunks else np.zeros(0)

    def forward(self, ids: Sequence[int]) -> float:
        """Probability of HOF for one encoded tweet."""
        return float(self.predict_proba([ids])[0])

    def predict(self, ids: Sequence[int]) -> int:
        """1 (HOF) iff the inferred probability is >= 0.5, else 0 (NOT)."""
        return 1 if self.forward(ids) >= 0.5 else 0

    def predict_batch(self, examples: Sequence[EncodedExample]) -> list:
        return (self.predict_proba([ex.ids for ex in examples]) >= 0.5).astype(int).tolist()

    # -- loss and gradients ------------------------------------------------

    def batch_loss(
        self, batch: Sequence[EncodedExample], masks_list: Optional[Sequence] = None
    ) -> float:
        """Mean BCE over a batch, with optional fixed dropout masks per example."""
        probs, _ = self._forward([ex.ids for ex in batch], masks_list)
        return float(np.mean(bce_loss(probs, np.array([ex.label for ex in batch]))))

    def batch_loss_grads(
        self, batch: Sequence[EncodedExample], masks_list: Optional[Sequence] = None
    ) -> tuple:
        """Mean loss and exact gradients of it for every parameter group.

        Max-pool routes gradient only to the (first) argmax position; dropout
        masks are the ones used in the forward pass; the embedding gradient
        accumulates per token occurrence and the pad row stays at zero.
        """
        p, cfg = self.params, self.cfg
        probs, saved = self._forward([ex.ids for ex in batch], masks_list)
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

        ids = saved["ids"]
        dx = np.zeros((len(ids), cfg.embed_dim), dtype=self.dtype)
        offset = 0
        for h, count in zip(FILTER_HEIGHTS, cfg.filter_counts):
            dpooled = dpooled_all[:, offset : offset + count]
            offset += count
            z, rows = saved[h]["z"], saved[h]["rows"]
            arg = _first_argmax(saved[h])
            cols = np.arange(count)
            dz = np.zeros_like(z)
            dz[arg, cols] = dpooled * (z[arg, cols] > 0)
            grads[f"conv{h}_w"] = dz.T @ saved[h]["s"]
            grads[f"conv{h}_b"] = dz.sum(axis=0)
            ds = (dz @ p[f"conv{h}_w"]).reshape(len(rows), h, cfg.embed_dim)
            for j in range(h):  # rows + j are distinct, so each add is safe
                dx[rows + j] += ds[:, j]

        if saved["input_mask"] is not None:
            dx = dx * saved["input_mask"]
        grads["emb"] = np.zeros_like(p["emb"])
        np.add.at(grads["emb"], ids, dx)
        grads["emb"][PAD_ID] = 0.0
        return loss, grads


class Adam:
    """Adam optimizer over the model's parameter dict; updates in place."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for k in PARAM_ORDER:
            g, m, v = grads[k], self.m[k], self.v[k]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / bias1
            v_hat = v / bias2
            # lr * m_hat / (sqrt(v_hat) + eps), in place so only two temporaries live
            np.sqrt(v_hat, out=v_hat)
            v_hat += self.eps
            m_hat *= self.lr
            m_hat /= v_hat
            self.params[k] -= m_hat


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

    def loss_grads(idx):
        batch = [train_ex[int(i)] for i in idx]
        masks_list = [
            model.make_masks(len(_pad_ids(ex.ids, model.cfg.m_max)), dropout_rng)
            for ex in batch
        ]
        return model.batch_loss_grads(batch, masks_list)

    best_f1 = -1.0
    best_params = model.copy_params()
    since_improve = 0
    history = []
    for epoch in range(1, cfg.epochs + 1):
        train_loss = run_epoch(
            len(train_ex), cfg.batch_size, shuffle_rng, loss_grads, adam.step, epoch
        )
        val_preds = model.predict_batch(val_ex)
        val_f1 = macro_f1(val_preds, [ex.label for ex in val_ex])
        history.append((epoch, float(train_loss), float(val_f1)))

        if val_f1 > best_f1:
            best_f1 = val_f1
            best_params = model.copy_params()
            since_improve = 0
        else:
            since_improve += 1
        if since_improve >= cfg.patience:
            break
    model.set_params(best_params)
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
            fh.write(np.ascontiguousarray(model.params[key], dtype="<f4").tobytes())


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
            text = line.decode("utf-8").rstrip("\n")
            if text == "end":
                break
            key, _, value = text.partition(" ")
            manifest[key] = value
        blob = fh.read()

    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise ValueError(f"checkpoint manifest lacks key {missing[0]!r}")
    if manifest["format"] != CHECKPOINT_MAGIC:
        raise ValueError(f"unknown checkpoint format {manifest['format']!r}")
    vocab_size, embed_dim, pooled_width, dense_units, m_max = (
        _manifest_values(manifest, key, int, 1)[0]
        for key in ("vocab_size", "embed_dim", "pooled_width", "dense_units", "m_max")
    )
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

    shapes = _param_shapes(cfg, vocab_size)
    expected = sum(int(np.prod(shapes[k])) for k in PARAM_ORDER) * 4
    if len(blob) != expected:
        raise ValueError(
            f"parameter blob length mismatch: expected {expected} bytes, "
            f"got {len(blob)}"
        )

    params = {}
    offset = 0
    for key in PARAM_ORDER:
        size = int(np.prod(shapes[key]))
        arr = np.frombuffer(blob, dtype="<f4", count=size, offset=offset)
        params[key] = arr.reshape(shapes[key]).copy()
        offset += size * 4

    if vocab is not None and manifest["vocab_hash"]:
        if vocab_hash(vocab) != manifest["vocab_hash"]:
            warnings.warn("checkpoint vocab hash does not match the provided vocabulary")
    return CnnModel(params, cfg)
