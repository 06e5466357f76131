"""Convolutional tweet classifier.

Architecture: embedding lookup -> three parallel filter banks (window
heights 3/4/5, one-stride convolution, ReLU) -> max-pool per filter ->
concatenate -> dense ReLU layer -> single sigmoid output giving P(HOF).

The embedding table is a trainable parameter (fine-tuned end to end); its
pad row is pinned to zero. All gradients are hand-derived; training uses
Adam on mean-batch binary cross-entropy. Dropout is inverted (survivors
scaled by 1/keep) at four sites: input word rows, pooled features of each
bank, and dense activations.

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


def bce_loss(p, y):
    """Elementwise binary cross-entropy, with p clamped away from 0 and 1."""
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(y * np.log(pc) + (1 - y) * np.log(1.0 - pc))


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
        p, cfg = self.params, self.cfg
        n = cfg.embed_dim
        if p["emb"].shape[1] != n:
            raise ValueError(
                f"embedding dim {p['emb'].shape[1]} does not match config dim {n}"
            )
        for h, count in zip(FILTER_HEIGHTS, cfg.filter_counts):
            if p[f"conv{h}_w"].shape != (count, h * n):
                raise ValueError(f"conv{h} weights must have shape {(count, h * n)}")
        if p["dense_w"].shape != (cfg.pooled_width, cfg.dense_units):
            raise ValueError(
                f"dense input width {p['dense_w'].shape[0]} does not equal "
                f"total filter count {cfg.pooled_width}"
            )

    @classmethod
    def init(
        cls,
        embedding: np.ndarray,
        cfg: CnnConfig,
        seed: int = 0,
        dtype=np.float32,
    ) -> "CnnModel":
        """Glorot-uniform weights, zero biases; embedding copied with pad row zeroed."""
        if embedding.shape[1] != cfg.embed_dim:
            raise ValueError(
                f"embedding dim {embedding.shape[1]} does not match config dim "
                f"{cfg.embed_dim}"
            )
        rng = derived_rng(seed, "cnn-init")
        n = cfg.embed_dim

        def glorot(fan_in, fan_out, shape):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-bound, bound, size=shape).astype(dtype)

        emb = np.array(embedding, dtype=dtype)
        emb[PAD_ID] = 0.0
        params = {"emb": emb}
        for h, count in zip(FILTER_HEIGHTS, cfg.filter_counts):
            params[f"conv{h}_w"] = glorot(h * n, count, (count, h * n))
            params[f"conv{h}_b"] = np.zeros(count, dtype=dtype)
        f = cfg.pooled_width
        params["dense_w"] = glorot(f, cfg.dense_units, (f, cfg.dense_units))
        params["dense_b"] = np.zeros(cfg.dense_units, dtype=dtype)
        params["out_w"] = glorot(cfg.dense_units, 1, (cfg.dense_units,))
        params["out_b"] = np.zeros(1, dtype=dtype)
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
        masks = {"input": self._mask(m, d.input, rng)}
        for h, count, rate in zip(
            FILTER_HEIGHTS, self.cfg.filter_counts, (d.bank3, d.bank4, d.bank5)
        ):
            masks[f"bank{h}"] = self._mask(count, rate, rng)
        masks["dense"] = self._mask(self.cfg.dense_units, d.dense, rng)
        return masks

    def _mask(self, size: int, rate: float, rng: np.random.Generator) -> np.ndarray:
        keep = 1.0 - rate
        mask = (rng.random(size) < keep).astype(self.dtype)
        return mask / self.dtype.type(keep)

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
        if masks is not None:  # input masks end to end; one row per tweet elsewhere
            masks = {
                k: (np.concatenate if k == "input" else np.stack)([mk[k] for mk in masks])
                for k in masks[0]
            }
        x = p["emb"][ids]
        if masks is not None:
            x = x * masks["input"][:, None]

        saved = {"ids": ids, "masks": masks}
        pooled_parts = []
        for h in FILTER_HEIGHTS:
            rows = np.flatnonzero(room >= h)  # window starts
            s = x[rows[:, None] + np.arange(h)].reshape(len(rows), h * n)
            z = s @ p[f"conv{h}_w"].T + p[f"conv{h}_b"]
            a = np.maximum(z, 0.0)
            counts = lengths - h + 1
            first = np.cumsum(counts) - counts
            pooled = np.maximum.reduceat(a, first, axis=0)
            # first argmax: the least window index among those that hit the max
            window = np.arange(len(rows))[:, None]
            hits = np.where(a == np.repeat(pooled, counts, axis=0), window, len(rows))
            arg = np.minimum.reduceat(hits, first, axis=0)
            if masks is not None:
                pooled = pooled * masks[f"bank{h}"]
            saved[h] = {"rows": rows, "s": s, "z": z, "argmax": arg}
            pooled_parts.append(pooled)
        pooled_all = np.concatenate(pooled_parts, axis=1)

        zd = pooled_all @ p["dense_w"] + p["dense_b"]
        a = np.maximum(zd, 0.0)
        if masks is not None:
            a = a * masks["dense"]
        logit = (a @ p["out_w"] + p["out_b"][0]).astype(np.float64)
        saved.update(pooled=pooled_all, zd=zd, a=a)
        return 1.0 / (1.0 + np.exp(-logit)), saved

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
        masks = saved["masks"]
        y = np.array([ex.label for ex in batch])
        loss = float(np.mean(bce_loss(probs, y)))

        # d(mean loss)/d(logit) per example; zero where the clamp in bce_loss was active
        inside = (probs > PROB_CLAMP) & (probs < 1.0 - PROB_CLAMP)
        dlogit = (np.where(inside, probs - y, 0.0) / len(batch)).astype(self.dtype)
        grads = {"out_w": dlogit @ saved["a"], "out_b": dlogit.sum(keepdims=True)}
        da = dlogit[:, None] * p["out_w"]
        if masks is not None:
            da = da * masks["dense"]
        dzd = da * (saved["zd"] > 0)
        grads["dense_w"] = saved["pooled"].T @ dzd
        grads["dense_b"] = dzd.sum(axis=0)
        dpooled_all = dzd @ p["dense_w"].T

        ids = saved["ids"]
        dx = np.zeros((len(ids), cfg.embed_dim), dtype=self.dtype)
        offset = 0
        for h, count in zip(FILTER_HEIGHTS, cfg.filter_counts):
            dpooled = dpooled_all[:, offset : offset + count]
            offset += count
            if masks is not None:
                dpooled = dpooled * masks[f"bank{h}"]
            z, arg, rows = saved[h]["z"], saved[h]["argmax"], saved[h]["rows"]
            cols = np.arange(count)
            dz = np.zeros_like(z)
            dz[arg, cols] = dpooled * (z[arg, cols] > 0)
            grads[f"conv{h}_w"] = dz.T @ saved[h]["s"]
            grads[f"conv{h}_b"] = dz.sum(axis=0)
            ds = (dz @ p[f"conv{h}_w"]).reshape(len(rows), h, cfg.embed_dim)
            for j in range(h):  # rows + j are distinct, so each add is safe
                dx[rows + j] += ds[:, j]

        if masks is not None:
            dx = dx * masks["input"][:, None]
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

    best_f1 = -1.0
    best_params = model.copy_params()
    since_improve = 0
    history = []
    n = len(train_ex)
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        running = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = [train_ex[int(i)] for i in order[start : start + cfg.batch_size]]
            masks_list = [
                model.make_masks(len(_pad_ids(ex.ids, model.cfg.m_max)), dropout_rng)
                for ex in batch
            ]
            loss, grads = model.batch_loss_grads(batch, masks_list)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch}"
                )
            adam.step(grads)
            running += loss * len(batch)
        train_loss = running / n

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
    with open(path, "wb") as fh:
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

    shapes = {
        "emb": (vocab_size, embed_dim),
        "dense_w": (cfg.pooled_width, dense_units),
        "dense_b": (dense_units,),
        "out_w": (dense_units,),
        "out_b": (1,),
    }
    for h, count in zip(FILTER_HEIGHTS, counts):
        shapes[f"conv{h}_w"] = (count, h * embed_dim)
        shapes[f"conv{h}_b"] = (count,)
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
