"""Bag-of-words baseline classifiers and the grid-search harness.

Four families: multinomial naive Bayes, ridge regression on +/-1 targets,
k-nearest neighbours with cosine similarity, and a small feedforward network
(five hidden layers of eight units). All prediction ties resolve to HOF,
matching the CNN's decision rule.
"""

from __future__ import annotations

import itertools
import math
import numbers
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
    "DnnConfig",
    "DnnModel",
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
        self.matrix(examples, fit=True)
        return self

    def matrix(self, examples: Sequence[EncodedExample], fit: bool = False) -> np.ndarray:
        """(N, V) bag-of-words matrix: token counts, times idf under tfidf.

        With ``fit``, the tfidf scheme first takes its idf from the document
        frequencies of these same counts, so a fit counts its examples once.
        """
        out = self._counts(examples)
        if self.scheme == "tfidf":
            if fit:
                self.idf = np.log((1.0 + len(examples)) / (1.0 + (out > 0).sum(axis=0))) + 1.0
            elif self.idf is None:
                raise RuntimeError("featurizer must be fit before tfidf transform")
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


def ridge_train(x: np.ndarray, y: np.ndarray, lams: Sequence[float]) -> list:
    """L2-penalized least squares on +/-1 targets, bias unpenalized: one model per lambda.

    Centring x and y eliminates the bias. One Gram matrix G = Xc Xc' serves each
    lambda's direct solve of the n x n dual system (G + lam I) a = yc, w = Xc' a.
    """
    if any(lam <= 0 for lam in lams):
        raise ValueError("lambda must be > 0")
    mean_x, mean_y = x.mean(axis=0), float(y.mean())
    xc = x - mean_x
    gram, yc = xc @ xc.T, y - mean_y
    ws = [xc.T @ np.linalg.solve(gram + lam * np.eye(len(y)), yc) for lam in lams]
    return [RidgeModel(w, mean_y - float(mean_x @ w), lam) for w, lam in zip(ws, lams)]


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


def _knn_votes(queries: np.ndarray, train: np.ndarray, labels: Sequence[int], ks) -> list:
    """Majority vote among the k most similar training rows, per query row: one list per k.

    Both matrices hold unit-norm (or zero) rows, so one product gives every
    cosine; a zero row has similarity 0 to everything. One stable sort serves every
    k: similarity ties keep training order (lower index wins); vote ties go to HOF.
    """
    if min(ks) < 1:
        raise ValueError("k must be >= 1")
    if len(train) == 0:
        raise ValueError("training set is empty")
    sims = queries @ train.T
    np.negative(sims, out=sims)
    votes_for = np.where(np.asarray(labels) == HOF, 1, -1)
    tally = np.cumsum(votes_for[np.argsort(sims, axis=1, kind="stable")[:, : max(ks)]], axis=1)
    return [np.where(tally[:, min(k, len(train)) - 1] >= 0, HOF, NOT).tolist() for k in ks]


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
    A minibatch's masks are one (B, V + h1 + h2) draw: row by row, each
    example's input, first and second hidden masks, the order in which drawing
    one example's masks at a time takes them.
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

    def make_masks(self, n: int, rng: np.random.Generator) -> dict:
        """Masks of ``n`` examples from one draw: site i masks the input of layer i."""
        cfg = self.cfg
        widths = (self.input_dim, cfg.hidden[0], cfg.hidden[1])
        rates = np.repeat([cfg.dropout_input, cfg.dropout_h1, cfg.dropout_h2], widths)
        mask = dropout_mask((n, len(rates)), rates, rng, np.float64)
        return dict(enumerate(np.split(mask, np.cumsum(widths)[:-1], axis=1)))

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

    def batch_loss(self, xs: np.ndarray, ys: Sequence[int], masks=None) -> float:
        """Mean NLL, with optional fixed ``make_masks`` dropout masks."""
        return _mean_nll(self._forward(xs, masks or {})[2], ys)

    def batch_loss_grads(self, xs: np.ndarray, ys: Sequence[int], masks=None):
        masks = masks or {}
        acts, zs, probs = self._forward(xs, masks)
        delta = probs.copy()
        delta[np.arange(len(ys)), ys] -= 1.0  # d(cross-entropy)/d(output logits)
        delta /= len(ys)
        layer_grads, _ = dense_backward(
            delta, self._layers(), acts, zs, masks, input_grad=False
        )
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
            return self.batch_loss_grads(xs[idx], ys[idx], self.make_masks(len(idx), mask_rng))

        def sgd(grads):
            for k in self.params:
                self.params[k] -= cfg.lr * grads[k]

        return [
            run_epoch(xs.shape[0], cfg.batch_size, shuffle_rng, loss_grads, sgd, epoch)
            for epoch in range(1, cfg.epochs + 1)
        ]


def _mean_nll(probs: np.ndarray, ys: Sequence[int]) -> float:
    picked = probs[np.arange(len(ys)), ys]
    return float(-np.log(np.maximum(picked, 1e-12)).sum() / len(ys))


# -- grid search -------------------------------------------------------------


BASELINE_FAMILIES = ("mnb", "ridge", "knn", "dnn")

DEFAULT_GRIDS = {
    "mnb": {"alpha": [0.1, 0.5, 1.0, 2.0]},
    "ridge": {"lambda": [0.1, 1.0, 10.0]},
    "knn": {"k": [1, 3, 5, 9]},
    "dnn": {"epochs": [100], "lr": [0.04]},
}


_POSITIVE, _COUNT, _SEED = "a finite number > 0", "a whole number >= 1", "a whole number >= 0"

# the parameters each family reads, and what each value must be
_GRID_PARAMS = {
    "mnb": {"alpha": _POSITIVE},
    "ridge": {"lambda": _POSITIVE},
    "knn": {"k": _COUNT},
    "dnn": {"lr": _POSITIVE, "epochs": _COUNT, "batch_size": _COUNT, "seed": _SEED},
}


def _check_point(family: str, params: dict) -> None:
    """ValueError naming the first parameter ``family`` does not read or whose value it rejects."""
    rules = _GRID_PARAMS[family]
    for key, value in params.items():
        if key not in rules:
            raise ValueError(
                f"grid point {params}: {family} has no parameter {key!r} "
                f"(it takes {', '.join(rules)})"
            )
        rule = rules[key]
        if rule == _POSITIVE:
            ok = isinstance(value, numbers.Real) and _finite_positive(value)
        else:
            ok = isinstance(value, numbers.Integral) and value >= (1 if rule == _COUNT else 0)
        if isinstance(value, bool) or not ok:
            raise ValueError(f"grid point {params}: {key} must be {rule}, got {value!r}")


def _finite_positive(value: numbers.Real) -> bool:
    try:
        return 0.0 < float(value) < math.inf
    except OverflowError:  # an int past the float range
        return False


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


def _fit(family: str, points: list, x: np.ndarray, labels: Sequence[int], seed: int):
    """Every grid point's model, fit on a fold's feature matrix ``x`` and its labels.

    The kNN "model" is ``x`` itself (unit rows) with every k, and ridge fits
    every lambda in one call. The DNN takes ``seed`` unless a point names its own.
    """
    if family == "mnb":
        return [mnb_train(x, labels, **params) for params in points]
    if family == "ridge":
        y = np.where(np.asarray(labels) == HOF, 1.0, -1.0)
        return ridge_train(x, y, [params.get("lambda", 1.0) for params in points])
    if family == "knn":
        return x, labels, [params.get("k", 5) for params in points]
    models = [DnnModel(x.shape[1], DnnConfig(**{"seed": seed, **params})) for params in points]
    for model in models:
        model.fit(x, labels)
    return models


def _predict(family: str, models, queries: np.ndarray) -> list:
    """Per grid point, one class per row of ``queries``, featurized as the training rows were."""
    if family == "knn":
        return _knn_votes(queries, *models)
    if family == "mnb":
        return [mnb_predict(model, queries)[0].tolist() for model in models]
    if family == "ridge":
        return [ridge_predict(model, queries).tolist() for model in models]
    return [model.predict(queries).tolist() for model in models]


def _fold_scores(
    family: str,
    points: list,
    train: Sequence[EncodedExample],
    test: Sequence[EncodedExample],
    vocab_size: int,
    seed: int,
) -> list:
    """Each grid point's macro-F1 on one fold: fit on ``train``, scored on ``test``.

    Each side's rows are featurized once, and kNN scales them to unit rows once
    (a second pass can move their last bits). Ridge forms one Gram matrix for
    every lambda, kNN one similarity product and one sort for every k. The test
    rows come after the fit, so no training matrix but kNN's is held beside them.
    """
    featurizer = BowFeaturizer(vocab_size, "count" if family == "mnb" else "tfidf")
    unit = _unit_rows if family == "knn" else (lambda m: m)
    x = unit(featurizer.matrix(train, fit=True))
    models = _fit(family, points, x, [ex.label for ex in train], seed)
    del x
    queries = unit(featurizer.matrix(test))
    gold = [ex.label for ex in test]
    return [macro_f1(preds, gold) for preds in _predict(family, models, queries)]


def grid_search(
    family: str,
    grid,
    examples: Sequence[EncodedExample],
    vocab_size: int,
    folds: int = 10,
    seed: int = 0,
) -> GridSearchResult:
    """Exhaustive search scored by mean macro-F1 over k-fold cross-validation.

    ``seed`` splits the folds and seeds the DNN. Ties keep the first grid
    point in declaration order.
    """
    if family not in BASELINE_FAMILIES:
        raise ValueError(f"unknown baseline family {family!r}")
    points = expand_grid(grid)
    if not points:
        raise ValueError("empty parameter grid")
    for params in points:
        _check_point(family, params)
    per_fold = [
        _fold_scores(family, points, [examples[i] for i in train_idx],
                     [examples[i] for i in test_idx], vocab_size, seed)
        for train_idx, test_idx in kfold(len(examples), folds, seed)
    ]
    rows = [
        (params, list(scores), sum(scores) / len(scores))
        for params, scores in zip(points, zip(*per_fold))
    ]
    best_index = max(range(len(rows)), key=lambda i: rows[i][2])
    return GridSearchResult(rows, best_index)
