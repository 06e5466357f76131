import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hofkit import baselines
from hofkit.baselines import (
    BowFeaturizer,
    DnnConfig,
    DnnModel,
    _fit,
    _knn_votes,
    _predict,
    _unit_rows,
    expand_grid,
    grid_search,
    mnb_predict,
    mnb_train,
    ridge_predict,
    ridge_train,
)
from hofkit.corpus import EncodedExample, kfold
from hofkit.layers import dropout_mask
from hofkit.metrics import macro_f1
from hofkit.seeding import derived_rng

from gradcheck import finite_difference, group_relative_error


def _counts_and_labels(examples, vocab_size):
    """The count matrix and the labels ``mnb_train`` takes."""
    return BowFeaturizer(vocab_size, "count").matrix(examples), [ex.label for ex in examples]


def _mnb_train_oracle(examples, vocab_size, alpha):
    """MNB fit token by token: the oracle for ``mnb_train`` on a count matrix."""
    counts = np.zeros((2, vocab_size))
    class_n = np.zeros(2)
    for ex in examples:
        class_n[ex.label] += 1.0
        for wid in ex.ids:
            counts[ex.label, wid] += 1.0
    log_prior = np.log(class_n / class_n.sum())
    totals = counts.sum(axis=1, keepdims=True)
    return log_prior, np.log(counts + alpha) - np.log(totals + alpha * vocab_size)


def _idf_oracle(examples, vocab_size):
    """Document frequency from each example's set of ids: the oracle for ``fit``."""
    df = np.zeros(vocab_size)
    for ex in examples:
        for wid in set(ex.ids):
            df[wid] += 1.0
    return np.log((1.0 + len(examples)) / (1.0 + df)) + 1.0


def _random_examples(rng, n, vocab_size):
    """n examples of 0-7 ids (repeats likely), labels alternating from HOF."""
    return [
        EncodedExample(tuple(int(t) for t in rng.integers(0, vocab_size, rng.integers(0, 8))),
                       1 - i % 2)
        for i in range(n)
    ]


class TestFeaturize:
    def test_counts(self):
        f = BowFeaturizer(6, "count")
        assert f.matrix([EncodedExample((2, 2, 3))]).tolist() == [[0.0, 0.0, 2.0, 1.0, 0.0, 0.0]]

    def test_empty(self):
        f = BowFeaturizer(6, "count")
        assert not f.matrix([EncodedExample(())]).any()

    def test_token_in_every_doc_has_idf_one(self):
        docs = [EncodedExample((2, 3)), EncodedExample((2,)), EncodedExample((2, 4))]
        f = BowFeaturizer(6, "tfidf").fit(docs)
        # df == N: idf = ln((1+N)/(1+N)) + 1 = 1
        assert f.idf[2] == pytest.approx(1.0)
        assert f.matrix([EncodedExample((2, 2))])[0, 2] == pytest.approx(2.0)

    def test_rare_token_weighted_up(self):
        docs = [EncodedExample((2,))] * 9 + [EncodedExample((3,))]
        f = BowFeaturizer(6, "tfidf").fit(docs)
        assert f.idf[3] > f.idf[2]

    @given(st.integers(0, 2**31 - 1), st.integers(0, 30), st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_idf_matches_set_loop(self, seed, n, vocab):
        docs = _random_examples(derived_rng(seed, "idf"), n, vocab)
        assert np.array_equal(BowFeaturizer(vocab, "tfidf").fit(docs).idf, _idf_oracle(docs, vocab))

    def test_unfit_tfidf_rejected(self):
        with pytest.raises(RuntimeError):
            BowFeaturizer(6, "tfidf").matrix([EncodedExample((2,))])


class TestMnb:
    def test_hand_computed_two_token_posterior(self):
        # train {"x": HOF, "y": NOT} with alpha=1 over vocab of 4:
        # p(x|HOF) = (1+1)/(1+4) = 0.4, p(x|NOT) = (0+1)/(1+4) = 0.2
        train = [EncodedExample((2,), 1), EncodedExample((3,), 0)]
        model = mnb_train(*_counts_and_labels(train, 4), alpha=1.0)
        label, scores = mnb_predict(model, np.array([0.0, 0.0, 1.0, 0.0]))
        assert label == 1
        assert scores[1] == pytest.approx(math.log(0.5) + math.log(0.4))
        assert scores[0] == pytest.approx(math.log(0.5) + math.log(0.2))

    def test_posterior_tie_goes_to_hof(self):
        train = [EncodedExample((2,), 1), EncodedExample((3,), 0)]
        model = mnb_train(*_counts_and_labels(train, 4), alpha=1.0)
        # token 4 is unseen in both classes: symmetric evidence, equal priors
        label, scores = mnb_predict(model, np.zeros(4))
        assert scores[0] == pytest.approx(scores[1])
        assert label == 1

    def test_unseen_token_is_smoothed(self):
        train = [EncodedExample((2,), 1), EncodedExample((3,), 0)]
        model = mnb_train(*_counts_and_labels(train, 5), alpha=1.0)
        label, scores = mnb_predict(model, np.array([0.0, 0.0, 0.0, 0.0, 3.0]))
        assert np.isfinite(scores).all()

    def test_likelihoods_sum_to_one(self):
        rng = derived_rng(0, "mnb")
        train = [
            EncodedExample(tuple(int(x) for x in rng.integers(0, 30, size=8)), i % 2)
            for i in range(40)
        ]
        model = mnb_train(*_counts_and_labels(train, 30), alpha=0.7)
        sums = np.exp(model.log_lik).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-9

    @given(st.integers(0, 2**31 - 1), st.integers(2, 30), st.integers(1, 20),
           st.floats(0.1, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_per_token_loop(self, seed, n, vocab, alpha):
        train = _random_examples(derived_rng(seed, "mnb-oracle"), n, vocab)
        model = mnb_train(*_counts_and_labels(train, vocab), alpha=alpha)
        log_prior, log_lik = _mnb_train_oracle(train, vocab, alpha)
        assert np.array_equal(model.log_prior, log_prior)
        assert np.array_equal(model.log_lik, log_lik)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            mnb_train(*_counts_and_labels([EncodedExample((2,), 1)], 4), alpha=1.0)

    def test_bad_alpha_rejected(self):
        train = [EncodedExample((2,), 1), EncodedExample((3,), 0)]
        with pytest.raises(ValueError):
            mnb_train(*_counts_and_labels(train, 4), alpha=0.0)

    @given(st.integers(1, 50), st.integers(0, 2**31 - 1))
    @example(scale=3, seed=337050)  # exact ties, decided by rounding before the tolerance
    @example(scale=3, seed=154577)
    @example(scale=3, seed=17895)
    @settings(max_examples=50, deadline=None)
    def test_count_scaling_invariance_with_equal_priors(self, scale, seed):
        rng = derived_rng(seed, "mnb-scale")
        train = [
            EncodedExample(tuple(int(x) for x in rng.integers(0, 12, size=6)), i % 2)
            for i in range(20)  # even count: equal priors
        ]
        model = mnb_train(*_counts_and_labels(train, 12), alpha=1.0)
        bow = {int(k): float(v) for k, v in zip(rng.integers(0, 12, 4), rng.integers(1, 5, 4))}
        x = np.zeros(12)
        x[list(bow)] = list(bow.values())
        base = mnb_predict(model, x)[0]
        scaled = mnb_predict(model, x * scale)[0]
        assert base == scaled


class TestRidge:
    def test_one_feature_closed_form(self):
        # centered x, sum(x^2)=10, sum(xy)=6: w = 6/(10+lambda), b = 0
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        (model,) = ridge_train(x, y, [1.0])
        assert model.w[0] == pytest.approx(6.0 / 11.0, abs=1e-8)
        assert model.b == pytest.approx(0.0, abs=1e-8)
        for xi, yi in zip(x, y):
            assert ridge_predict(model, xi) == (1 if yi > 0 else 0)

    def test_normal_equation_residual_against_direct_solve(self):
        rng = derived_rng(1, "ridge")
        x = rng.normal(size=(20, 6))
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        lam = 2.5
        (model,) = ridge_train(x, y, [lam])
        xa = np.hstack([x, np.ones((20, 1))])
        penalty = np.diag([lam] * 6 + [0.0])
        w = np.concatenate([model.w, [model.b]])
        residual = (xa.T @ xa + penalty) @ w - xa.T @ y
        assert np.linalg.norm(residual) < 1e-6
        oracle = np.linalg.solve(xa.T @ xa + penalty, xa.T @ y)
        assert np.abs(w - oracle).max() < 1e-6

    def test_huge_lambda_drives_weights_to_zero_and_ties_to_hof(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        norms = []
        for lam in (1e3, 1e6, 1e12):
            (model,) = ridge_train(x, y, [lam])
            norms.append(float(np.abs(model.w).max()))
            assert abs(model.b) < 1e-9  # balanced targets
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 1e-9
        # in the exact limit all scores hit the tie rule: everything is HOF
        from hofkit.baselines import RidgeModel

        limit = RidgeModel(np.zeros(2), 0.0, np.inf)
        for xi in x:
            assert ridge_predict(limit, xi) == 1

    def test_duplication_with_doubled_penalty_is_invariant(self):
        # doubling the data doubles X^T X and X^T y; doubling lambda keeps the
        # normal-equations solution identical
        rng = derived_rng(2, "ridge-dup")
        x = rng.normal(size=(10, 4))
        y = np.where(rng.random(10) < 0.5, 1.0, -1.0)
        (a,) = ridge_train(x, y, [3.0])
        (b,) = ridge_train(np.vstack([x, x]), np.concatenate([y, y]), [6.0])
        assert np.abs(a.w - b.w).max() < 1e-6
        assert abs(a.b - b.b) < 1e-6

    @given(st.integers(0, 2**31 - 1), st.integers(2, 20), st.integers(1, 20), st.floats(-3, 6))
    @example(seed=0, n=3, v=12, log_lam=-3)  # n < V+1: the dual is the smaller system
    @example(seed=0, n=20, v=2, log_lam=-3)  # n > V+1
    @example(seed=1, n=8, v=5, log_lam=6)
    @settings(max_examples=100, deadline=None)
    def test_matches_primal_solve(self, seed, n, v, log_lam):
        # tf-idf-like rows: small counts times per-column weights, so zero
        # columns and duplicate rows occur
        rng = derived_rng(seed, "ridge-primal")
        x = rng.integers(0, 3, size=(n, v)) * rng.uniform(1.0, 3.0, size=v)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        lam = 10.0**log_lam
        (model,) = ridge_train(x, y, [lam])
        xa = np.hstack([x, np.ones((n, 1))])
        penalty = np.diag([lam] * v + [0.0])
        want = np.linalg.solve(xa.T @ xa + penalty, xa.T @ y)
        got = np.append(model.w, model.b)
        # both solves are exact up to float64 rounding times the condition
        # number, which stays below ~1e7 at these sizes and lambda >= 1e-3
        assert np.abs(got - want).max() <= 1e-7 * max(1.0, np.abs(want).max())

    def test_bad_lambda_rejected(self):
        with pytest.raises(ValueError):
            ridge_train(np.ones((2, 1)), np.ones(2), [0.0])
        with pytest.raises(ValueError):
            ridge_train(np.ones((2, 1)), np.ones(2), [1.0, -1.0])

    @given(st.integers(0, 2**31 - 1), st.integers(2, 12), st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_lambda_path_equals_one_fit_per_lambda(self, seed, n, v):
        # one Gram matrix serves every lambda, and each model keeps the bits
        # of a fit on that lambda alone, duplicates and order included
        rng = derived_rng(seed, "ridge-path")
        x = rng.integers(0, 3, size=(n, v)) * rng.uniform(1.0, 3.0, size=v)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        lams = [10.0, 0.1, 1.0, 0.1, 1e-3, 1e4]
        path = ridge_train(x, y, lams)
        assert len(path) == len(lams)
        for lam, model in zip(lams, path):
            (alone,) = ridge_train(x, y, [lam])
            assert model.lam == lam
            assert model.w.tobytes() == alone.w.tobytes() and model.b == alone.b


def _knn_vote_oracle(queries, train, labels, k) -> list:
    """Per query row, the vote of its own stable sort: the oracle for ``_knn_votes``."""
    votes_for = np.where(np.asarray(labels) == 1, 1, -1)
    return [
        1 if votes_for[np.argsort(-row, kind="stable")[:k]].sum() >= 0 else 0
        for row in queries @ train.T
    ]


def knn_predict(q, train, labels, k) -> int:
    """One query's vote through ``_knn_votes``, both sides unit-scaled in copies."""
    unit_q = _unit_rows(np.array(q, dtype=np.float64, ndmin=2))
    return _knn_votes(unit_q, _unit_rows(np.array(train, dtype=np.float64)), labels, [k])[0][0]


class TestKnn:
    def _train(self):
        x = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.9, 0.1, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.9, 0.1],
            ]
        )
        labels = [1, 1, 0, 0]
        return x, labels

    def test_exact_match_k1(self):
        x, labels = self._train()
        assert knn_predict(x[2], x, labels, 1) == 0
        assert knn_predict(x[0], x, labels, 1) == 1

    def test_k_equals_n_gives_majority(self):
        x = np.array([[1.0, 0.0], [1.0, 0.1], [0.9, 0.0], [0.0, 1.0]])
        labels = [1, 1, 1, 0]
        assert knn_predict(np.array([0.0, 1.0]), x, labels, 4) == 1

    def test_orthogonal_query_takes_first_k_by_index(self):
        x, labels = self._train()
        q = np.array([0.0, 0.0, 0.0])  # zero similarity to everything
        assert knn_predict(q, x, labels, 2) == 1  # first two are HOF
        assert knn_predict(q, x, np.array([0, 0, 1, 1]), 2) == 0

    def test_vote_tie_goes_to_hof(self):
        x, labels = self._train()
        q = np.array([0.0, 0.0, 0.0])
        assert knn_predict(q, x, labels, 4) == 1  # 2-2 tie

    def test_k_zero_rejected(self):
        x, labels = self._train()
        with pytest.raises(ValueError):
            knn_predict(x[0], x, labels, 0)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="training set is empty"):
            knn_predict(np.ones(3), np.zeros((0, 3)), [], 1)

    def test_zero_norm_vectors_have_zero_similarity(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        # the zero query ties every row at 0, so training order decides
        assert knn_predict(np.zeros(2), x, [0, 1, 1], 1) == 0
        # the zero rows score 0 against any query, below a matching row
        assert knn_predict(np.array([2.0, 0.0]), x, [0, 1, 0], 1) == 1

    @given(st.floats(0.1, 100.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_uniform_scaling_invariance(self, scale, seed):
        rng = derived_rng(seed, "knn-scale")
        x = rng.random((8, 5))
        labels = [int(b) for b in rng.integers(0, 2, 8)]
        q = rng.random(5)
        assert knn_predict(q, x, labels, 3) == knn_predict(q * scale, x * scale, labels, 3)


class TestKnnVotes:
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 12),  # train rows
        st.integers(0, 8),  # query rows
        st.lists(st.integers(1, 40), min_size=1, max_size=6),  # duplicates and k > N occur
    )
    @example(seed=0, n=5, m=3, ks=[40, 1, 40])
    @settings(max_examples=150, deadline=None)
    def test_every_k_matches_a_sort_per_row(self, seed, n, m, ks):
        # 0/1 rows over 4 columns: duplicate rows, zero rows and exact
        # similarity ties between distinct rows are all common
        rng = derived_rng(seed, "knn-votes")
        train = _unit_rows(rng.integers(0, 2, size=(n, 4)).astype(np.float64))
        queries = _unit_rows(rng.integers(0, 2, size=(m, 4)).astype(np.float64))
        labels = [int(b) for b in rng.integers(0, 2, n)]
        got = _knn_votes(queries, train, labels, ks)
        assert got == [_knn_vote_oracle(queries, train, labels, k) for k in ks]

    def test_k_past_the_int64_range_votes_over_every_row(self):
        train = np.eye(3)
        assert _knn_votes(train, train, [1, 0, 0], [10**30, 3]) == [[0, 0, 0], [0, 0, 0]]


def _brute_force_knn(query, train, labels, k, tol=1e-9):
    """Per-query cosine top-k with every train norm recomputed: the kNN oracle.

    Returns the vote and whether the top-k boundary is a near-tie between rows
    that are not identical, where last-bit rounding may order either way.
    Exact ties (duplicate rows, no shared token) are never ambiguous.
    """
    qn = np.linalg.norm(query)
    norms = np.linalg.norm(train, axis=1)
    sims = np.zeros(train.shape[0])
    nz = norms > 0
    if qn > 0:
        sims[nz] = (train[nz] @ query) / (norms[nz] * qn)
    order = np.argsort(-sims, kind="stable")
    votes = sum(1 if labels[int(i)] == 1 else -1 for i in order[:k])
    ambiguous = False
    if k < len(order) and sims[order[k - 1]] != 0.0:
        near = np.flatnonzero(np.abs(sims - sims[order[k - 1]]) <= tol)
        straddles = bool(np.isin(near, order[k:]).any())
        ambiguous = straddles and any(not np.array_equal(train[i], train[near[0]]) for i in near)
    return (1 if votes >= 0 else 0), ambiguous


def _knn_model(train, vocab, k):
    """A featurizer fit on ``train`` and the kNN model grid search fits on its unit rows."""
    featurizer = BowFeaturizer(vocab, "tfidf")
    x = _unit_rows(featurizer.matrix(train, fit=True))
    return featurizer, _fit("knn", [{"k": k}], x, [ex.label for ex in train], 0)


def _knn_classes(featurizer, model, queries) -> list:
    return _predict("knn", model, _unit_rows(featurizer.matrix(queries)))[0]


class TestKnnBatched:
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 12),  # distinct train rows
        st.integers(0, 4),  # duplicated train rows
        st.integers(0, 3),  # all-zero train rows
        st.integers(0, 8),  # queries
        st.integers(0, 3),  # all-zero queries
        st.integers(1, 24),  # k, often >= N
    )
    @settings(max_examples=150, deadline=None)
    def test_batched_predict_matches_brute_force(
        self, seed, n_rows, n_dup, n_zero, n_query, n_zero_query, k
    ):
        vocab = 9
        rng = derived_rng(seed, "knn-batched")

        def random_example(label=None):
            length = int(rng.integers(1, 7))
            return EncodedExample(tuple(int(t) for t in rng.integers(0, vocab, length)), label)

        def insert_anywhere(rows, ex):
            rows.insert(int(rng.integers(0, len(rows) + 1)), ex)

        train = [random_example(int(rng.integers(0, 2))) for _ in range(n_rows)]
        for _ in range(n_dup):
            insert_anywhere(train, train[int(rng.integers(0, len(train)))])
        for _ in range(n_zero):
            insert_anywhere(train, EncodedExample((), int(rng.integers(0, 2))))
        queries = [random_example() for _ in range(n_query)]
        for _ in range(n_zero_query):
            insert_anywhere(queries, EncodedExample(()))

        featurizer, model = _knn_model(train, vocab, k)
        got = _knn_classes(featurizer, model, queries)
        assert len(got) == len(queries)

        x_train, x_query = featurizer.matrix(train), featurizer.matrix(queries)
        labels = [ex.label for ex in train]
        for q, pred in zip(x_query, got):
            want, ambiguous = _brute_force_knn(q, x_train, labels, k)
            if not ambiguous:
                assert pred == want
        if queries:
            assert _knn_classes(featurizer, model, queries[:1]) == got[:1]

    def test_zero_query_takes_first_k_rows(self):
        train = [EncodedExample((2,), 1), EncodedExample((3,), 0), EncodedExample((4,), 0)]
        featurizer, model = _knn_model(train, 6, 1)
        assert _knn_classes(featurizer, model, [EncodedExample(()), EncodedExample((3,))]) == [1, 0]

    def test_fit_stores_unit_rows(self, monkeypatch):
        # grid search scales each fold's train and test matrix to unit rows
        # once, before the fold's one vote, which serves every grid point
        scaled, voted = [], []

        def unit_rows(x):
            scaled.append(x.shape[0])
            return _unit_rows(x)

        def votes(queries, train, labels, ks):
            voted.append((queries, train, ks))
            return _knn_votes(queries, train, labels, ks)

        monkeypatch.setattr(baselines, "_unit_rows", unit_rows)
        monkeypatch.setattr(baselines, "_knn_votes", votes)
        examples = [EncodedExample((2, 2, 3), 1), EncodedExample((), 0)] * 6
        grid_search("knn", {"k": [1, 2, 3, 5]}, examples, 6, folds=3)
        assert scaled == [8, 4] * 3 and len(voted) == 3
        for queries, train, ks in voted:
            assert ks == [1, 2, 3, 5]
            for m in (queries, train):
                norms = np.linalg.norm(m, axis=1)
                assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))

    def test_knn_predict_leaves_inputs_untouched(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0]])
        q = np.array([6.0, 8.0])
        knn_predict(q, x, [1, 0], 1)
        assert x.tolist() == [[3.0, 4.0], [0.0, 0.0]] and q.tolist() == [6.0, 8.0]

    def test_empty_query_batch(self):
        featurizer, model = _knn_model([EncodedExample((2,), 1)], 6, 3)
        assert _knn_classes(featurizer, model, []) == []


def _dense_row(ex, featurizer):
    """One example's bag-of-words row, token by token: the featurizer oracle."""
    counts = {}
    for wid in ex.ids:
        counts[wid] = counts.get(wid, 0.0) + 1.0
    row = np.zeros(featurizer.vocab_size)
    for wid, c in counts.items():
        row[wid] = c * featurizer.idf[wid] if featurizer.scheme == "tfidf" else c
    return row


def _mnb_row_oracle(model, row):
    """Per-row, per-token MNB decision; also whether it is a near tie.

    An empty row scores the priors exactly on every path, so it is never
    exempt: its ties must go to HOF.
    """
    scores = model.log_prior.copy()
    for wid in np.flatnonzero(row):
        scores += row[wid] * model.log_lik[:, wid]
    margin = scores[1] - scores[0]
    near = abs(margin) <= 1e-9 * max(1.0, float(np.abs(scores).max()))
    return (1 if margin >= 0 else 0), near and row.any()


def _ridge_row_oracle(model, row):
    """Per-row, per-feature ridge decision; also whether it is a near tie."""
    score = model.b
    for wid in np.flatnonzero(row):
        score += row[wid] * model.w[wid]
    return (1 if score >= 0 else 0), abs(score) <= 1e-9 and row.any()


class TestMatrixPredict:
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(2, 16),  # train rows
        st.integers(0, 10),  # query rows
        st.integers(0, 3),  # empty queries
        st.integers(3, 12),  # vocabulary size
    )
    @settings(max_examples=100, deadline=None)
    def test_matrix_predict_matches_row_loop(self, seed, n_train, n_query, n_empty, vocab):
        rng = derived_rng(seed, "matrix-predict")

        def random_example(label=None):
            length = int(rng.integers(1, 7))
            return EncodedExample(tuple(int(t) for t in rng.integers(0, vocab, length)), label)

        train = [random_example(i % 2) for i in range(n_train)]  # both classes
        queries = [random_example() for _ in range(n_query)] + [EncodedExample(())] * n_empty

        counts = BowFeaturizer(vocab, "count").matrix(queries)
        mnb = mnb_train(*_counts_and_labels(train, vocab), alpha=float(rng.uniform(0.1, 2.0)))
        labels, scores = mnb_predict(mnb, counts)
        assert labels.shape == (len(queries),) and scores.shape == (len(queries), 2)
        for i, row in enumerate(counts):
            want, near = _mnb_row_oracle(mnb, row)
            if not near:
                assert labels[i] == want == mnb_predict(mnb, row)[0]

        featurizer = BowFeaturizer(vocab, "tfidf").fit(train)
        y = np.array([1.0 if ex.label == 1 else -1.0 for ex in train])
        (ridge,) = ridge_train(featurizer.matrix(train), y, [float(rng.uniform(0.1, 5.0))])
        x = featurizer.matrix(queries)
        labels = ridge_predict(ridge, x)
        assert labels.shape == (len(queries),)
        for i, row in enumerate(x):
            want, near = _ridge_row_oracle(ridge, row)
            if not near:
                assert labels[i] == want == ridge_predict(ridge, row)


class TestMatrix:
    def test_matrix_rows_equal_dense(self):
        docs = [EncodedExample((2, 2, 5)), EncodedExample(()), EncodedExample((3,))]
        f = BowFeaturizer(6, "tfidf").fit(docs)
        m = f.matrix(docs)
        assert m.shape == (3, 6)
        for row, ex in zip(m, docs):
            assert np.array_equal(row, _dense_row(ex, f))

    def test_empty_matrix_has_vocab_width(self):
        assert BowFeaturizer(6, "count").matrix([]).shape == (0, 6)


def dnn_masks_oracle(model, rng) -> dict:
    """One example's masks, one draw per site: the batched draw's oracle."""
    cfg = model.cfg
    return {
        idx: dropout_mask(size, rate, rng, np.float64)
        for idx, rate, size in (
            (0, cfg.dropout_input, model.input_dim),
            (1, cfg.dropout_h1, cfg.hidden[0]),
            (2, cfg.dropout_h2, cfg.hidden[1]),
        )
    }


class TestDnn:
    @pytest.mark.parametrize(
        "cfg", [DnnConfig(), DnnConfig(dropout_input=0.2, dropout_h1=0.0, dropout_h2=0.7)]
    )
    @pytest.mark.parametrize("n", [1, 7, 32])
    def test_batched_masks_match_per_example_draws(self, cfg, n):
        model = DnnModel(2112, cfg)
        rng, oracle_rng = derived_rng(n, "dnn-test-masks"), derived_rng(n, "dnn-test-masks")
        got = model.make_masks(n, rng)
        oracle = [dnn_masks_oracle(model, oracle_rng) for _ in range(n)]
        assert sorted(got) == [0, 1, 2]
        for site in got:
            want = np.stack([mk[site] for mk in oracle])
            assert got[site].dtype == want.dtype == np.float64
            assert got[site].shape == want.shape
            assert got[site].tobytes() == want.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_zero_init_gives_uniform_softmax(self):
        model = DnnModel(6, DnnConfig(seed=0))
        for k in model.params:
            model.params[k][...] = 0.0
        probs = model.predict_proba(np.ones(6))
        assert probs[0] == pytest.approx(0.5) and probs[1] == pytest.approx(0.5)
        assert model.predict(np.ones(6)) == 1  # tie to HOF

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("with_dropout", [False, True])
    def test_gradients_match_finite_differences(self, seed, with_dropout):
        rng = derived_rng(seed, "dnn-grad")
        model = DnnModel(5, DnnConfig(seed=seed))
        for k in model.params:
            if k.startswith("b"):
                model.params[k] += rng.normal(0, 0.3, size=model.params[k].shape)
        xs = rng.normal(size=(3, 5))
        ys = [1, 0, 1]
        masks = None
        if with_dropout:
            mask_rng = derived_rng(seed, "dnn-grad-masks")
            masks = model.make_masks(3, mask_rng)
        _, grads = model.batch_loss_grads(xs, ys, masks)
        for key in sorted(model.params):
            fd = finite_difference(
                lambda: model.batch_loss(xs, ys, masks), model.params[key]
            )
            assert group_relative_error(grads[key], fd) < 1e-3, key

    def test_learns_separable_toy_set(self):
        rng = derived_rng(5, "dnn-toy")
        n, v = 60, 10
        xs = np.zeros((n, v))
        ys = []
        for i in range(n):
            label = i % 2
            signal = 2 if label == 1 else 3
            xs[i, signal] = 1.0
            xs[i, int(rng.integers(4, v))] = 1.0
            ys.append(label)
        model = DnnModel(v, DnnConfig(epochs=500, lr=0.04, batch_size=8, seed=5))
        model.fit(xs, ys)
        correct = sum(model.predict(xs[i]) == ys[i] for i in range(n))
        assert correct / n >= 0.95

    def test_architecture_is_five_by_eight(self):
        model = DnnModel(20, DnnConfig())
        assert model.params["w0"].shape == (20, 8)
        for i in range(1, 5):
            assert model.params[f"w{i}"].shape == (8, 8)
        assert model.params["w5"].shape == (8, 2)


# four points per family, defaults included
GRIDS = {
    "mnb": [{}, {"alpha": 0.1}, {"alpha": 0.5}, {"alpha": 2.0}],
    "ridge": [{}, {"lambda": 0.1}, {"lambda": 3.0}, {"lambda": 10.0}],
    "knn": [{}, {"k": 1}, {"k": 2}, {"k": 40}],
    "dnn": [{"epochs": 3}, {"epochs": 4, "lr": 0.1, "seed": 7}, {"epochs": 3, "batch_size": 8},
            {"epochs": 2, "lr": 0.2, "batch_size": 4, "seed": 1}],
}


class TestGridSearch:
    def _examples(self, n=30):
        rng = derived_rng(7, "grid")
        out = []
        for i in range(n):
            label = i % 2
            signal = 2 if label else 3
            ids = [signal] + [int(x) for x in rng.integers(4, 12, size=4)]
            out.append(EncodedExample(tuple(ids), label))
        return out

    def test_singleton_grid(self):
        res = grid_search("mnb", {"alpha": [1.0]}, self._examples(), 12, folds=5)
        assert len(res.rows) == 1
        assert res.best_params == {"alpha": 1.0}

    def test_identical_points_first_wins(self):
        res = grid_search(
            "mnb", [{"alpha": 1.0}, {"alpha": 1.0}], self._examples(), 12, folds=5
        )
        assert res.best_index == 0

    def test_mnb_alpha_grid_table(self):
        res = grid_search(
            "mnb", {"alpha": [0.1, 1.0, 10.0]}, self._examples(), 12, folds=10, seed=3
        )
        assert len(res.rows) == 3
        assert all(len(scores) == 10 for _, scores, _ in res.rows)
        for params, scores, mean in res.rows:
            assert mean == pytest.approx(sum(scores) / len(scores))
        best_mean = res.rows[res.best_index][2]
        assert all(best_mean >= mean for _, _, mean in res.rows)

    def test_grid_expansion_order(self):
        grid = {"a": [1, 2], "b": ["x", "y"]}
        points = expand_grid(grid)
        assert points == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_search("mnb", [], self._examples(), 12)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown baseline family 'svm'"):
            grid_search("svm", {"k": [1]}, self._examples(), 12)

    def test_every_grid_point_checked_before_any_fit(self, monkeypatch):
        fits = []
        monkeypatch.setattr(baselines, "_fit", lambda *args: fits.append(args))
        with pytest.raises(ValueError, match="k must be a whole number >= 1, got 2.5"):
            grid_search("knn", {"k": [3, 2.5]}, self._examples(), 12)
        assert fits == []

    def test_numpy_grid_values_accepted(self):
        grid = {"epochs": [np.int64(2)], "lr": [np.float64(0.04)], "seed": [np.int32(1)]}
        assert len(grid_search("dnn", grid, self._examples(), 12, folds=2).rows) == 1

    def _matrix(self, family, n):
        examples = self._examples(n)
        featurizer = BowFeaturizer(12, "count" if family == "mnb" else "tfidf")
        x = featurizer.matrix(examples, fit=True)
        return (_unit_rows(x) if family == "knn" else x), [ex.label for ex in examples]

    def test_all_families_fit_and_predict(self):
        for family, params in [
            ("mnb", {"alpha": 1.0}),
            ("ridge", {"lambda": 1.0}),
            ("knn", {"k": 3}),
            ("dnn", {"epochs": 30, "lr": 0.04, "seed": 1}),
        ]:
            x, labels = self._matrix(family, 40)
            models = _fit(family, [params, params], x, labels, 0)
            preds, again = _predict(family, models, x)
            assert len(preds) == 40 and set(preds) <= {0, 1} and again == preds
            assert _predict(family, models, x[:0]) == [[], []]

    def test_dnn_takes_the_run_seed_unless_the_grid_names_one(self):
        x, labels = self._matrix("dnn", 20)

        def fitted(params, seed):
            (model,) = _fit("dnn", [params], x, labels, seed)
            return model.params

        one, two = fitted({"epochs": 2}, 1), fitted({"epochs": 2}, 2)
        assert any(not np.array_equal(one[k], two[k]) for k in one)
        pinned = fitted({"epochs": 2, "seed": 2}, 1)
        assert all(pinned[k].tobytes() == two[k].tobytes() for k in two)

    def test_grid_search_seeds_the_dnn(self, monkeypatch):
        seeds = []

        class Recording(DnnModel):
            def __init__(self, input_dim, cfg):
                seeds.append(cfg.seed)
                super().__init__(input_dim, cfg)

        monkeypatch.setattr(baselines, "DnnModel", Recording)
        grid = [{"epochs": 1}, {"epochs": 1, "seed": 9}]
        grid_search("dnn", grid, self._examples(), 12, folds=2, seed=4)
        assert seeds == [4, 9, 4, 9]  # folds outside, grid points inside

    @pytest.mark.parametrize("family, grid", GRIDS.items(), ids=list(GRIDS))
    def test_rows_match_a_fit_per_point_and_fold(self, family, grid):
        examples, points = self._examples(40), expand_grid(grid)
        got = grid_search(family, grid, examples, 12, folds=4, seed=6).rows
        assert got == _grid_rows_oracle(family, points, examples, 12, folds=4, seed=6)

    @pytest.mark.parametrize("family, grid", GRIDS.items(), ids=list(GRIDS))
    def test_featurizes_each_fold_once(self, monkeypatch, family, grid):
        calls = []
        matrix = BowFeaturizer.matrix

        def counting(self, examples, fit=False):
            calls.append(fit)
            return matrix(self, examples, fit)

        monkeypatch.setattr(BowFeaturizer, "matrix", counting)
        grid_search(family, grid, self._examples(), 12, folds=3)
        assert calls == [True, False] * 3  # one pair per fold, not per (point, fold)

    @pytest.mark.parametrize("family, grid", GRIDS.items(), ids=list(GRIDS))
    def test_every_fit_precedes_the_test_rows(self, monkeypatch, family, grid):
        # the test rows are featurized after the fold's one fit, which serves
        # every grid point, and by then the fold's training matrix is freed
        # unless the kNN model keeps it; no matrix of an earlier fold outlives
        # its fold
        events, alive, refs = [], [], []
        matrix, fit_model = BowFeaturizer.matrix, baselines._fit

        def recording_matrix(self, examples, fit=False):
            events.append("train" if fit else "test")
            alive.append([ref() is not None for ref in refs])
            out = matrix(self, examples, fit)
            refs.append(weakref.ref(out))
            return out

        def recording_fit(*args):
            events.append("fit")
            return fit_model(*args)

        monkeypatch.setattr(BowFeaturizer, "matrix", recording_matrix)
        monkeypatch.setattr(baselines, "_fit", recording_fit)
        grid_search(family, grid, self._examples(), 12, folds=3)
        assert events == ["train", "fit", "test"] * 3
        keeps_x = family == "knn"
        assert alive == [[], [keeps_x], [False, False], [False, False, keeps_x],
                         [False] * 4, [False] * 4 + [keeps_x]]


def _grid_rows_oracle(family, points, examples, vocab_size, folds, seed) -> list:
    """``grid_search`` rows from a fresh featurizer and fit per (point, fold): the oracle."""
    rows = []
    for params in points:
        scores = []
        for train_idx, test_idx in kfold(len(examples), folds, seed):
            train = [examples[i] for i in train_idx]
            test = [examples[i] for i in test_idx]
            labels = [ex.label for ex in train]
            featurizer = BowFeaturizer(vocab_size, "count" if family == "mnb" else "tfidf")
            x = featurizer.matrix(train, fit=True)
            queries = featurizer.matrix(test)
            if family == "mnb":
                preds = mnb_predict(mnb_train(x, labels, params.get("alpha", 1.0)), queries)[0]
            elif family == "ridge":
                y = np.where(np.asarray(labels) == 1, 1.0, -1.0)
                (model,) = ridge_train(x, y, [params.get("lambda", 1.0)])
                preds = ridge_predict(model, queries)
            elif family == "knn":
                preds = _knn_vote_oracle(_unit_rows(queries), _unit_rows(x), labels,
                                         params.get("k", 5))
            else:
                cfg = DnnConfig(
                    lr=params.get("lr", 0.04),
                    epochs=params.get("epochs", 200),
                    batch_size=params.get("batch_size", 32),
                    seed=params.get("seed", seed),
                )
                model = DnnModel(vocab_size, cfg)
                model.fit(x, labels)
                preds = model.predict(queries)
            scores.append(macro_f1(np.asarray(preds).tolist(), [ex.label for ex in test]))
        rows.append((params, scores, sum(scores) / len(scores)))
    return rows
