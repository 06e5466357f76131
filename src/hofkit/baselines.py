"""Bag-of-words baseline classifiers and the grid-search harness.

Four families: multinomial naive Bayes, ridge regression on +/-1 targets,
k-nearest neighbours with cosine similarity, and a small feedforward network
(five hidden layers of eight units). All prediction ties resolve to HOF,
matching the CNN's decision rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus import EncodedExample, kfold
from .layers import dense_backward, dense_forward, dropout_mask, run_epoch
from .metrics import macro_f1
from .seeding import derived_rng

__all__ = [
    "BowFeaturizer",
    "MnbModel",
    "mnb_train",
    "mnb_predict",
    "RidgeModel",
    "ridge_train",
    "ridge_predict",
    "knn_predict",
    "DnnConfig",
    "DnnModel",
    "make_baseline",
    "BASELINE_FAMILIES",
    "grid_search",
    "GridSearchResult",
]

HOF, NOT = 1, 0


class BowFeaturizer:
    """Bag-of-words featurizer; TF-IDF uses idf = ln((1+N)/(1+df)) + 1."""

    def __init__(self, vocab_size: int, scheme: str = "tfidf"):
        if scheme not in ("count", "tfidf"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.vocab_size = vocab_size
        self.scheme = scheme
        self.idf: Optional[np.ndarray] = None

    def fit(self, examples: Sequence[EncodedExample]) -> "BowFeaturizer":
        df = (self._counts(examples) > 0).sum(axis=0)
        self.idf = np.log((1.0 + len(examples)) / (1.0 + df)) + 1.0
        return self

    def matrix(self, examples: Sequence[EncodedExample]) -> np.ndarray:
        """(N, V) bag-of-words matrix: token counts, times idf under tfidf."""
        if self.scheme == "tfidf" and self.idf is None:
            raise RuntimeError("featurizer must be fit before tfidf transform")
        out = self._counts(examples)
        if self.scheme == "tfidf":
            out *= self.idf
        return out

    def _counts(self, examples: Sequence[EncodedExample]) -> np.ndarray:
        out = np.zeros((len(examples), self.vocab_size), dtype=np.float64)
        lengths = [len(ex.ids) for ex in examples]
        rows = np.repeat(np.arange(len(examples)), lengths)
        cols = np.fromiter(
            itertools.chain.from_iterable(ex.ids for ex in examples), np.intp, sum(lengths)
        )
        np.add.at(out, (rows, cols), 1.0)
        return out


# -- multinomial naive Bayes -------------------------------------------------


@dataclass
class MnbModel:
    log_prior: np.ndarray  # indexed by label (NOT=0, HOF=1)
    log_lik: np.ndarray  # (2, V) log token likelihoods with Laplace smoothing
    alpha: float


def mnb_train(x: np.ndarray, labels: Sequence[int], alpha: float = 1.0) -> MnbModel:
    """Fit on an (N, V) token-count matrix and its N labels."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    onehot = (np.asarray(labels)[:, None] == [NOT, HOF]).astype(np.float64)  # (N, 2)
    class_n = onehot.sum(axis=0)
    if class_n.min() == 0:
        raise ValueError("both classes must appear in the training data")
    counts = onehot.T @ x  # per-class sums of whole numbers: exact in any order
    log_prior = np.log(class_n / class_n.sum())
    totals = counts.sum(axis=1, keepdims=True)
    log_lik = np.log(counts + alpha) - np.log(totals + alpha * x.shape[1])
    return MnbModel(log_prior, log_lik, alpha)


def mnb_predict(model: MnbModel, x: np.ndarray) -> tuple:
    """Classes plus log-posteriors (up to the shared evidence constant).

    ``x`` is one count row (V,) or a count matrix (N, V); scores are (2,) or
    (N, 2), indexed by label.
    """
    scores = x @ model.log_lik.T + model.log_prior
    # scores within rounding of each other tie, and ties go to HOF; the
    # tolerance is relative, so scaling x scales it with the scores
    tie = 1e-12 * np.abs(scores).max(axis=-1)
    return np.where(scores[..., HOF] >= scores[..., NOT] - tie, HOF, NOT), scores


# -- ridge classifier --------------------------------------------------------


@dataclass
class RidgeModel:
    w: np.ndarray  # feature weights
    b: float  # unpenalized bias
    lam: float


def ridge_train(x: np.ndarray, y: np.ndarray, lam: float) -> RidgeModel:
    """L2-penalized least squares on +/-1 targets, bias unpenalized.

    Centring x and y eliminates the bias; the weights then come from one
    direct solve of the n x n dual system (Xc Xc' + lam I) a = yc, w = Xc' a.
    """
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    mean_x, mean_y = x.mean(axis=0), float(y.mean())
    xc = x - mean_x
    a = np.linalg.solve(xc @ xc.T + lam * np.eye(len(y)), y - mean_y)
    w = xc.T @ a
    return RidgeModel(w, mean_y - float(mean_x @ w), lam)


def ridge_predict(model: RidgeModel, x: np.ndarray) -> np.ndarray:
    """Class of one feature row (V,) or of each row of a matrix (N, V)."""
    return np.where(x @ model.w + model.b >= 0.0, HOF, NOT)


# -- k-nearest neighbours ----------------------------------------------------


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Scale each row of ``x`` to unit L2 norm in place; zero rows stay zero."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    norms[norms == 0.0] = 1.0
    x /= norms[:, None]
    return x


def _knn_vote(queries: np.ndarray, train: np.ndarray, labels: Sequence[int], k: int) -> list:
    """Majority vote among the k most similar training rows, per query row.

    Both matrices hold unit-norm (or zero) rows, so one product gives every
    cosine. Similarity ties keep training order (lower index wins); vote ties
    go to HOF.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if train.shape[0] == 0:
        raise ValueError("training set is empty")
    votes_for = np.where(np.asarray(labels) == HOF, 1, -1)
    return [
        HOF if votes_for[np.argsort(-row, kind="stable")[:k]].sum() >= 0 else NOT
        for row in queries @ train.T
    ]


def knn_predict(q: np.ndarray, train: np.ndarray, labels: Sequence[int], k: int) -> int:
    """Majority vote among the k most cosine-similar training vectors.

    Zero-norm vectors have similarity 0 to everything. Similarity ties keep
    training order (lower index wins); vote ties go to HOF.
    """
    unit_q = _unit_rows(np.array(q, dtype=np.float64, ndmin=2))
    return _knn_vote(unit_q, _unit_rows(np.array(train, dtype=np.float64)), labels, k)[0]


# -- feedforward network -----------------------------------------------------


@dataclass(frozen=True)
class DnnConfig:
    hidden: tuple = (8, 8, 8, 8, 8)
    lr: float = 0.04
    epochs: int = 200
    batch_size: int = 32
    dropout_input: float = 0.5
    dropout_h1: float = 0.5
    dropout_h2: float = 0.5
    seed: int = 0


class DnnModel:
    """Five ReLU hidden layers of eight units, 2-way softmax, plain SGD.

    Inverted dropout on the input vector and the first two hidden
    activations, per-site rates from the config. The six layers are one
    stack of ``layers.py``, which also runs the shuffled minibatch epoch.
    """

    def __init__(self, input_dim: int, cfg: DnnConfig = DnnConfig()):
        self.cfg = cfg
        self.input_dim = input_dim
        rng = derived_rng(cfg.seed, "dnn-init")
        dims = [input_dim, *cfg.hidden, 2]
        self.params = {}
        for i in range(len(dims) - 1):
            bound = np.sqrt(6.0 / (dims[i] + dims[i + 1]))
            self.params[f"w{i}"] = rng.uniform(-bound, bound, size=(dims[i], dims[i + 1]))
            self.params[f"b{i}"] = np.zeros(dims[i + 1])
        self.n_layers = len(dims) - 1

    # masks[i] applies to the activation feeding layer i (0 = input vector)
    def make_masks(self, rng: np.random.Generator) -> dict:
        cfg = self.cfg
        return {
            idx: dropout_mask(size, rate, rng, np.float64)
            for idx, rate, size in (
                (0, cfg.dropout_input, self.input_dim),
                (1, cfg.dropout_h1, cfg.hidden[0]),
                (2, cfg.dropout_h2, cfg.hidden[1]),
            )
        }

    def _layers(self) -> list:
        return [(self.params[f"w{i}"], self.params[f"b{i}"]) for i in range(self.n_layers)]

    def _forward(self, x: np.ndarray, masks: dict):
        """Forward pass over rows of ``x``; ``masks`` maps a site to (B, width)."""
        acts, zs = dense_forward(x, self._layers(), masks)
        z_out = zs[-1]
        exp = np.exp(z_out - z_out.max(axis=-1, keepdims=True))
        probs = exp / exp.sum(axis=-1, keepdims=True)
        return acts, zs, probs

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return self._forward(x, {})[2]

    def predict(self, x: np.ndarray) -> np.ndarray:
        probs = self.predict_proba(x)
        return np.where(probs[..., HOF] >= probs[..., NOT], HOF, NOT)

    def batch_loss(self, xs: np.ndarray, ys: Sequence[int], masks_list=None) -> float:
        probs = self._forward(xs, _stack_masks(masks_list))[2]
        return _mean_nll(probs, ys)

    def batch_loss_grads(self, xs: np.ndarray, ys: Sequence[int], masks_list=None):
        masks = _stack_masks(masks_list)
        acts, zs, probs = self._forward(xs, masks)
        delta = probs.copy()
        delta[np.arange(len(ys)), ys] -= 1.0  # d(cross-entropy)/d(output logits)
        delta /= len(ys)
        layer_grads, _ = dense_backward(delta, self._layers(), acts, zs, masks)
        grads = {}
        for i, (dw, db) in enumerate(layer_grads):
            grads[f"w{i}"], grads[f"b{i}"] = dw, db
        return _mean_nll(probs, ys), grads

    def fit(self, xs: np.ndarray, ys: Sequence[int]) -> list:
        cfg = self.cfg
        shuffle_rng = derived_rng(cfg.seed, "dnn-shuffle")
        mask_rng = derived_rng(cfg.seed, "dnn-dropout")
        ys = np.asarray(ys)

        def loss_grads(idx):
            masks_list = [self.make_masks(mask_rng) for _ in idx]
            return self.batch_loss_grads(xs[idx], ys[idx], masks_list)

        def sgd(grads):
            for k in self.params:
                self.params[k] -= cfg.lr * grads[k]

        return [
            run_epoch(xs.shape[0], cfg.batch_size, shuffle_rng, loss_grads, sgd, epoch)
            for epoch in range(1, cfg.epochs + 1)
        ]


def _stack_masks(masks_list) -> dict:
    """Per-example {site: mask} dicts -> one {site: (B, width)} dict."""
    if masks_list is None:
        return {}
    return {site: np.stack([m[site] for m in masks_list]) for site in masks_list[0]}


def _mean_nll(probs: np.ndarray, ys: Sequence[int]) -> float:
    picked = probs[np.arange(len(ys)), ys]
    return float(-np.log(np.maximum(picked, 1e-12)).sum() / len(ys))


# -- uniform wrapper + grid search -------------------------------------------


class _BaselineWrapper:
    """fit/predict facade over a baseline family for grid search and the CLI.

    Each fit and each predict_batch featurizes its examples into one matrix.
    """

    def __init__(self, family: str, params: dict, vocab_size: int):
        self.family = family
        self.params = dict(params)
        self.vocab_size = vocab_size
        self._featurizer = BowFeaturizer(vocab_size, "count" if family == "mnb" else "tfidf")
        self._fitted = None

    def fit(self, examples: Sequence[EncodedExample]) -> "_BaselineWrapper":
        p = self.params
        labels = [ex.label for ex in examples]
        x = self._featurizer.fit(examples).matrix(examples)
        if self.family == "mnb":
            self._fitted = mnb_train(x, labels, p.get("alpha", 1.0))
        elif self.family == "ridge":
            y = np.where(np.asarray(labels) == HOF, 1.0, -1.0)
            self._fitted = ridge_train(x, y, p.get("lambda", 1.0))
        elif self.family == "knn":
            self._fitted = (_unit_rows(x), labels)
        else:
            cfg = DnnConfig(
                lr=p.get("lr", 0.04),
                epochs=p.get("epochs", 200),
                batch_size=p.get("batch_size", 32),
                seed=p.get("seed", 0),
            )
            self._fitted = DnnModel(self.vocab_size, cfg)
            self._fitted.fit(x, labels)
        return self

    def predict_batch(self, examples: Sequence[EncodedExample]) -> list:
        x = self._featurizer.matrix(examples)
        if self.family == "mnb":
            return mnb_predict(self._fitted, x)[0].tolist()
        if self.family == "ridge":
            return ridge_predict(self._fitted, x).tolist()
        if self.family == "knn":
            train, labels = self._fitted
            return _knn_vote(_unit_rows(x), train, labels, self.params.get("k", 5))
        return self._fitted.predict(x).tolist()


BASELINE_FAMILIES = ("mnb", "ridge", "knn", "dnn")

DEFAULT_GRIDS = {
    "mnb": {"alpha": [0.1, 0.5, 1.0, 2.0]},
    "ridge": {"lambda": [0.1, 1.0, 10.0]},
    "knn": {"k": [1, 3, 5, 9]},
    "dnn": {"epochs": [100], "lr": [0.04]},
}


def make_baseline(family: str, params: dict, vocab_size: int) -> _BaselineWrapper:
    if family not in BASELINE_FAMILIES:
        raise ValueError(f"unknown baseline family {family!r}")
    return _BaselineWrapper(family, params, vocab_size)


def expand_grid(grid) -> list:
    """dict-of-lists or list-of-dicts -> list of parameter dicts, in declaration order."""
    if isinstance(grid, list) and all(isinstance(g, dict) for g in grid):
        return [dict(g) for g in grid]
    if isinstance(grid, dict) and all(isinstance(v, list) for v in grid.values()):
        keys = list(grid)
        combos = itertools.product(*(grid[k] for k in keys))
        return [dict(zip(keys, combo)) for combo in combos]
    raise ValueError(
        'grid must be a dict of value lists, e.g. {"alpha": [0.5, 1.0]}, '
        'or a list of parameter dicts, e.g. [{"alpha": 0.5}]'
    )


@dataclass
class GridSearchResult:
    rows: list  # (params, fold_scores, mean) per grid point, in grid order
    best_index: int

    @property
    def best_params(self) -> dict:
        return self.rows[self.best_index][0]


def grid_search(
    family: str,
    grid,
    examples: Sequence[EncodedExample],
    vocab_size: int,
    folds: int = 10,
    seed: int = 0,
) -> GridSearchResult:
    """Exhaustive search scored by mean macro-F1 over k-fold cross-validation.

    Ties keep the first grid point in declaration order.
    """
    points = expand_grid(grid)
    if not points:
        raise ValueError("empty parameter grid")
    partitions = kfold(len(examples), folds, seed)
    rows = []
    best_index = 0
    best_mean = -1.0
    for gi, params in enumerate(points):
        scores = []
        for train_idx, test_idx in partitions:
            train = [examples[i] for i in train_idx]
            test = [examples[i] for i in test_idx]
            model = make_baseline(family, params, vocab_size).fit(train)
            preds = model.predict_batch(test)
            scores.append(macro_f1(preds, [ex.label for ex in test]))
        mean = sum(scores) / len(scores)
        rows.append((params, scores, mean))
        if mean > best_mean:
            best_mean = mean
            best_index = gi
    return GridSearchResult(rows, best_index)
