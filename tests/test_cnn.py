import math
import tracemalloc

import numpy as np
import pytest

from hofkit import cnn, corpus
from hofkit.cnn import (
    INFER_BATCH,
    Adam,
    CnnConfig,
    CnnModel,
    DropoutSpec,
    TrainConfig,
    _pad_ids,
    bce_loss,
    load_checkpoint,
    save_checkpoint,
    train_model,
    vocab_hash,
)
from hofkit.corpus import EncodedExample
from hofkit.layers import dense_backward, dense_forward, dropout_mask
from hofkit.seeding import derived_rng

from gradcheck import finite_difference, group_relative_error

SMALL = dict(embed_dim=8, filter_counts=(2, 2, 4), dense_units=8, m_max=7)


# -- scalar reference ops: the model's packed pass is checked against these ----


def embed_and_pad(ids, emb: np.ndarray, m_max: int) -> np.ndarray:
    """Look up embedding rows, truncate at m_max, right-pad with the zero row to >= 5."""
    padded = _pad_ids(ids, m_max)
    return emb[padded]


def conv_feature(weights: np.ndarray, bias: float, t: np.ndarray, k: int) -> float:
    """ReLU(filter . slice + bias) for the slice starting at row k (0-based, stride 1)."""
    h = weights.shape[0]
    if not 0 <= k <= t.shape[0] - h:
        raise ValueError(f"slice start {k} out of range for m={t.shape[0]}, h={h}")
    return float(max(0.0, float(np.sum(weights * t[k : k + h])) + float(bias)))


def max_pool(features) -> tuple:
    """Maximum feature and its position; ties go to the first position."""
    if len(features) == 0:
        raise ValueError("max_pool needs at least one feature")
    arr = np.asarray(features)
    k = int(np.argmax(arr))  # np.argmax returns the first maximal index
    return float(arr[k]), k


def forward(model, ids) -> float:
    """Probability of HOF for one encoded tweet: a one-tweet ``predict_proba`` pass."""
    return float(model.predict_proba([ids])[0])


def per_example_masks(model, m, rng) -> dict:
    """One tweet's masks of padded length m, one draw per site: the batched draw's oracle."""
    d = model.cfg.dropout
    masks = {"input": dropout_mask(m, d.input, rng, model.dtype)}
    for h, count, rate in zip(
        cnn.FILTER_HEIGHTS, model.cfg.filter_counts, (d.bank3, d.bank4, d.bank5)
    ):
        masks[f"bank{h}"] = dropout_mask(count, rate, rng, model.dtype)
    masks["dense"] = dropout_mask(model.cfg.dense_units, d.dense, rng, model.dtype)
    return masks


def padded_lengths(model, id_lists) -> list:
    return [len(_pad_ids(ids, model.cfg.m_max)) for ids in id_lists]


def dense_emb_grad(ids, dx, vocab_size):
    """The dense embedding gradient: one np.add.at into a zero table, pad row zeroed."""
    grad = np.zeros((vocab_size, dx.shape[1]), dtype=dx.dtype)
    np.add.at(grad, ids, dx)
    grad[corpus.PAD_ID] = 0.0
    return grad


def first_argmax(bank: dict) -> np.ndarray:
    """Per tweet and filter, the least packed window whose ReLU value equals the pooled max.

    ``bank`` is one filter height's entry of ``packed_forward``'s intermediates;
    the result holds packed window indices, shape (tweets, filters).
    """
    z, pooled, first = bank["z"], bank["pooled"], bank["first"]
    window = np.arange(len(z))[:, None]
    hits = np.maximum(z, 0.0) == np.repeat(pooled, bank["counts"], axis=0)
    return np.minimum.reduceat(np.where(hits, window, len(z)), first, axis=0)


def packed_window_pool(proj, reads, first, bias) -> np.ndarray:
    """One bank's pooled ReLU maxima over packed tweets, pooled by ``np.maximum.reduceat``.

    ``reads[j]`` holds the row of ``proj`` each window reads at offset j, and
    ``first`` the index of each tweet's first window.
    """
    count = len(bias)
    z = proj[reads[0], :count]
    for j, read in enumerate(reads[1:], start=1):
        z += proj[read, j * count : (j + 1) * count]
    z += bias
    return np.maximum(np.maximum.reduceat(z, first, axis=0), 0.0)


def real_windows(model, id_lists, z, h) -> np.ndarray:
    """The windows of the model's padded bank-h ``z`` that are no repeat, stacked as packed."""
    counts = np.array(padded_lengths(model, id_lists)) - h + 1
    return np.concatenate([zt[:n] for zt, n in zip(z, counts)])


def model_argmax(z) -> np.ndarray:
    """Per tweet and filter, the window of the padded ``z`` that ``batch_loss_grads`` routes to."""
    return np.maximum(z, 0.0).argmax(axis=1)


def packed_forward(model, id_lists, masks=None):
    """The im2col convolution: each window's rows stacked into one matrix row.

    Returns P(HOF) per tweet and, per bank height, the window starts ``rows``,
    the window matrix ``s``, ``z``, ``pooled``, ``first`` and ``counts``, plus
    the ids, the input mask and what the dense head saved.
    """
    p, cfg = model.params, model.cfg
    n = cfg.embed_dim
    padded = [_pad_ids(ids, cfg.m_max) for ids in id_lists]
    lengths = np.array([len(t) for t in padded])
    ids = np.concatenate(padded)
    room = np.concatenate([np.arange(len(t), 0, -1) for t in padded])
    input_mask, head_masks = (None, {}) if masks is None else (masks[0][:, None], masks[1])
    x = p["emb"][ids]
    if input_mask is not None:
        x = x * input_mask
    saved = {"ids": ids, "input_mask": input_mask, "head_masks": head_masks}
    pooled_parts = []
    for h in cnn.FILTER_HEIGHTS:
        rows = np.flatnonzero(room >= h)
        s = x[rows[:, None] + np.arange(h)].reshape(len(rows), h * n)
        z = s @ p[f"conv{h}_w"].T + p[f"conv{h}_b"]
        counts = lengths - h + 1
        first = np.cumsum(counts) - counts
        pooled = np.maximum(np.maximum.reduceat(z, first, axis=0), 0.0)
        saved[h] = {"rows": rows, "s": s, "z": z, "pooled": pooled, "first": first,
                    "counts": counts}
        pooled_parts.append(pooled)
    acts, zs = dense_forward(np.concatenate(pooled_parts, axis=1), model._head(), head_masks)
    saved.update(acts=acts, zs=zs)
    logit = zs[1][:, 0].astype(np.float64)
    return 1.0 / (1.0 + np.exp(-logit)), saved


def packed_loss_grads(model, batch, masks=None):
    """Mean loss and dense gradients through ``packed_forward``'s windows.

    Each window's gradient goes back through ``dz.T @ s`` and, per offset, onto
    the word rows it read; the embedding gradient is one dense ``np.add.at``.
    """
    p, cfg = model.params, model.cfg
    probs, saved = packed_forward(model, [ex.ids for ex in batch], masks)
    y = np.array([ex.label for ex in batch])
    loss = float(np.mean(bce_loss(probs, y)))
    inside = (probs > cnn.PROB_CLAMP) & (probs < 1.0 - cnn.PROB_CLAMP)
    dlogit = (np.where(inside, probs - y, 0.0) / len(batch)).astype(model.dtype)
    ((dense_w, dense_b), (out_w, out_b)), dpooled_all = dense_backward(
        dlogit[:, None], model._head(), saved["acts"], saved["zs"], saved["head_masks"]
    )
    grads = {"dense_w": dense_w, "dense_b": dense_b, "out_w": out_w.ravel(), "out_b": out_b}
    ids = saved["ids"]
    dx = np.zeros((len(ids), cfg.embed_dim), dtype=model.dtype)
    offset = 0
    for h, count in zip(cnn.FILTER_HEIGHTS, cfg.filter_counts):
        dpooled = dpooled_all[:, offset : offset + count]
        offset += count
        z, rows = saved[h]["z"], saved[h]["rows"]
        arg = first_argmax(saved[h])
        cols = np.arange(count)
        dz = np.zeros_like(z)
        dz[arg, cols] = dpooled * (z[arg, cols] > 0)
        grads[f"conv{h}_w"] = dz.T @ saved[h]["s"]
        grads[f"conv{h}_b"] = dz.sum(axis=0)
        ds = (dz @ p[f"conv{h}_w"]).reshape(len(rows), h, cfg.embed_dim)
        for j in range(h):
            dx[rows + j] += ds[:, j]
    if saved["input_mask"] is not None:
        dx = dx * saved["input_mask"]
    grads["emb"] = dense_emb_grad(ids, dx, len(p["emb"]))
    saved["dx"] = dx
    return loss, grads, saved


def packed_block_proba(model, id_lists):
    """The packed inference pool the padded one replaced: the byte-for-byte oracle.

    Runs of ``INFER_BATCH`` tweets in input order, stacked end to end; each
    window sums its offsets' columns of one projection per filter slice, and
    ``np.maximum.reduceat`` pools each tweet's windows.
    """
    p, cfg = model.params, model.cfg
    ids, lengths = cnn._pack(id_lists, cfg.m_max)
    room = np.concatenate([np.arange(n, 0, -1) for n in lengths])
    u, inv = np.unique(ids, return_inverse=True)
    emb_u = p["emb"][u]
    ends = np.cumsum(lengths)
    starts = ends - lengths
    pooled = np.empty((len(lengths), cfg.pooled_width), dtype=model.dtype)
    col = 0
    for h, count in zip(cnn.FILTER_HEIGHTS, cfg.filter_counts):
        runs = []
        for t0 in range(0, len(lengths), cnn.INFER_BATCH):
            t1 = min(t0 + cnn.INFER_BATCH, len(lengths))
            a, b = starts[t0], ends[t1 - 1]
            rows = a + np.flatnonzero(room[a:b] >= h)
            counts = lengths[t0:t1] - h + 1
            runs.append((t0, inv[rows + np.arange(h)[:, None]], np.cumsum(counts) - counts))
        for lo in range(0, count, cnn.INFER_SLICE):
            hi = min(lo + cnn.INFER_SLICE, count)
            proj = cnn._project(emb_u, model._filter_rows(h, lo, hi))
            bias = p[f"conv{h}_b"][lo:hi]
            for t0, reads, first in runs:
                pooled[t0 : t0 + len(first), col + lo : col + hi] = packed_window_pool(
                    proj, reads, first, bias)
        col += count
    return model._dense_head(pooled, {})[0]


def adam_textbook(params, grads_seq, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Adam with fresh moment arrays each step, as in Kingma & Ba's Algorithm 1."""
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(x) for k, x in params.items()}
    for t, grads in enumerate(grads_seq, start=1):
        bias1 = 1.0 - b1**t
        bias2 = 1.0 - b2**t
        for k in params:
            g = grads[k]
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * g * g
            m_hat = m[k] / bias1
            v_hat = v[k] / bias2
            params[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return m, v


def small_model(seed=0, dropout=None, dtype=np.float64, vocab=9, randomize_biases=True, **shape):
    """A model of the ``SMALL`` shape, with ``shape`` overriding its fields."""
    rng = derived_rng(seed, "cnn-test-data")
    shape = {**SMALL, **shape}
    emb = rng.normal(0, 0.5, size=(vocab, shape["embed_dim"]))
    cfg = CnnConfig(dropout=dropout or DropoutSpec.none(), **shape)
    model = CnnModel.init(emb, cfg, seed=seed, dtype=dtype)
    if randomize_biases:
        # move off the zero-bias init so no ReLU sits exactly on its kink
        for key in cnn.PARAM_ORDER:
            if key.endswith("_b"):
                model.params[key] += rng.normal(0, 0.3, size=model.params[key].shape)
    return model, rng


def random_batch(rng, vocab=9, sizes=(6, 3, 7), labels=(1, 0, 1)):
    return [
        EncodedExample(tuple(int(x) for x in rng.integers(1, vocab, size=s)), y)
        for s, y in zip(sizes, labels)
    ]


class TestEmbedAndPad:
    def test_empty_gives_minimum_zero_matrix(self):
        emb = np.arange(20.0).reshape(5, 4)
        emb[0] = 0.0
        t = embed_and_pad([], emb, 64)
        assert t.shape == (5, 4)
        assert not t.any()

    def test_short_sequence_padded_to_five(self):
        emb = np.arange(20.0).reshape(5, 4)
        emb[0] = 0.0
        t = embed_and_pad([2, 3, 4], emb, 64)
        assert t.shape == (5, 4)
        assert np.array_equal(t[0], emb[2])
        assert not t[3:].any()

    def test_long_sequence_truncated(self):
        emb = np.ones((5, 4))
        t = embed_and_pad([1] * 100, emb, 64)
        assert t.shape == (64, 4)


class TestConvFeature:
    def test_all_ones(self):
        f = np.ones((3, 2))
        t = np.ones((5, 2))
        for k in range(3):
            assert conv_feature(f, 0.0, t, k) == 6.0

    def test_relu_clamps_negative(self):
        f = -np.ones((3, 2))
        t = np.ones((5, 2))
        assert conv_feature(f, 0.0, t, 0) == 0.0

    def test_bias_passes_through_on_zero_matrix(self):
        f = np.ones((3, 2))
        t = np.zeros((5, 2))
        assert conv_feature(f, 0.5, t, 0) == 0.5

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            conv_feature(np.ones((3, 2)), 0.0, np.ones((5, 2)), 3)


class TestMaxPool:
    def test_max(self):
        assert max_pool([0.0, 6.0, 2.0]) == (6.0, 1)

    def test_tie_goes_to_first(self):
        assert max_pool([3.0, 3.0, 3.0]) == (3.0, 0)

    def test_single(self):
        assert max_pool([1.5]) == (1.5, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_pool([])

    def test_model_pooling_matches_op_composition(self):
        model, rng = small_model(seed=4)
        ids = tuple(int(x) for x in rng.integers(1, 9, size=6))
        _, c = model._forward([ids])
        t = embed_and_pad(ids, model.params["emb"], model.cfg.m_max)
        for h, count in zip(cnn.FILTER_HEIGHTS, model.cfg.filter_counts):
            argmax = model_argmax(c[h]["z"])
            for ci in range(count):
                w = model.params[f"conv{h}_w"][ci].reshape(h, -1)
                b = float(model.params[f"conv{h}_b"][ci])
                feats = [conv_feature(w, b, t, k) for k in range(t.shape[0] - h + 1)]
                value, arg = max_pool(feats)
                a = np.maximum(c[h]["z"][0, :, ci], 0.0)
                assert value == pytest.approx(float(a.max()))
                assert arg == int(argmax[0, ci])


class TestForward:
    def test_zero_weights_give_half(self):
        model, _ = small_model(randomize_biases=False)
        for k in model.params:
            model.params[k][...] = 0.0
        assert forward(model, (1, 2, 3)) == 0.5
        assert forward(model, ()) == 0.5

    def test_infer_deterministic(self):
        model, rng = small_model(seed=1)
        ids = tuple(int(x) for x in rng.integers(1, 9, size=6))
        assert forward(model, ids) == forward(model, ids)

    def test_train_with_keep_one_equals_infer(self):
        model, rng = small_model(seed=2, dropout=DropoutSpec.none())
        ids = tuple(int(x) for x in rng.integers(1, 9, size=6))
        mask_rng = derived_rng(0, "masks")
        masks = model.make_masks(padded_lengths(model, [ids]), mask_rng)
        assert model._forward([ids], masks)[0][0] == forward(model, ids)

    def test_probability_in_unit_interval(self):
        model, rng = small_model(seed=3)
        for _ in range(5):
            ids = tuple(int(x) for x in rng.integers(1, 9, size=4))
            assert 0.0 < forward(model, ids) < 1.0

    def test_predict_threshold(self):
        model, _ = small_model(randomize_biases=False)
        for k in model.params:
            model.params[k][...] = 0.0
        assert model.predict_batch([EncodedExample((1, 2))]) == [1]  # p = 0.5 ties to HOF


class TestPackedBatch:
    def test_predict_proba_matches_per_tweet_forward(self):
        model, rng = small_model(seed=11)
        queries = [(), tuple(range(1, 9)) * 2] + [
            tuple(int(x) for x in rng.integers(1, 9, size=int(rng.integers(0, 15))))
            for _ in range(INFER_BATCH + 5)
        ]
        assert max(len(q) for q in queries) > model.cfg.m_max
        probs = model.predict_proba(queries)
        assert probs.shape == (len(queries),)
        assert np.abs(probs - [forward(model, q) for q in queries]).max() < 1e-12
        assert model.predict_proba([]).shape == (0,)

    def test_batch_gradients_equal_mean_of_single_example_gradients(self):
        model, rng = small_model(seed=12, dropout=DropoutSpec())
        batch = random_batch(rng, sizes=(0, 3, 12, 7, 5), labels=(1, 0, 1, 0, 1))
        lengths = padded_lengths(model, [ex.ids for ex in batch])
        masks = model.make_masks(lengths, derived_rng(12, "cnn-test-masks"))
        loss, grads = model.batch_loss_grads(batch, masks)
        mask_rng = derived_rng(12, "cnn-test-masks")  # the same masks, drawn one tweet at a time
        singles = [
            model.batch_loss_grads([ex], model.make_masks([m], mask_rng))
            for ex, m in zip(batch, lengths)
        ]
        assert abs(loss - np.mean([single_loss for single_loss, _ in singles])) < 1e-12
        for key in cnn.PARAM_ORDER:
            mean = sum(np.asarray(g[key]) for _, g in singles) / len(batch)
            assert np.abs(np.asarray(grads[key]) - mean).max() < 1e-12, key


class TestLoss:
    def test_half_gives_ln2(self):
        assert bce_loss(0.5, 1) == pytest.approx(math.log(2))
        assert bce_loss(0.5, 0) == pytest.approx(math.log(2))

    def test_correct_confident_prediction_near_zero(self):
        assert bce_loss(1.0 - 1e-9, 1) < 1e-6
        assert bce_loss(1e-9, 0) < 1e-6

    def test_wrong_confident_prediction(self):
        assert bce_loss(0.9, 0) == pytest.approx(-math.log(0.1))

    def test_clamp_keeps_loss_finite(self):
        assert np.isfinite(bce_loss(0.0, 1))
        assert np.isfinite(bce_loss(1.0, 0))


class TestBackward:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("with_dropout", [False, True])
    def test_gradients_match_finite_differences(self, seed, with_dropout):
        dropout = DropoutSpec() if with_dropout else DropoutSpec.none()
        model, rng = small_model(seed=seed, dropout=dropout)
        batch = random_batch(rng)
        masks = None
        if with_dropout:
            mask_rng = derived_rng(seed, "cnn-test-masks")
            masks = model.make_masks([max(min(len(ex.ids), 7), 5) for ex in batch], mask_rng)
        _, grads = model.batch_loss_grads(batch, masks)
        for key in cnn.PARAM_ORDER:
            skip = (corpus.PAD_ID,) if key == "emb" else ()
            fd = finite_difference(
                lambda: model.batch_loss(batch, masks), model.params[key], skip_rows=skip
            )
            assert group_relative_error(grads[key], fd) < 1e-3, key

    def test_symmetric_batch_zeroes_output_bias_gradient(self):
        # same input with both labels and p = 0.5: mean of (p-0) and (p-1) is 0
        model, _ = small_model(randomize_biases=False)
        for k in model.params:
            model.params[k][...] = 0.0
        batch = [EncodedExample((1, 2, 3), 0), EncodedExample((1, 2, 3), 1)]
        _, grads = model.batch_loss_grads(batch)
        assert grads["out_b"][0] == 0.0

    def test_pad_row_gradient_is_zero(self):
        model, rng = small_model(seed=5)
        batch = random_batch(rng, sizes=(3, 2), labels=(1, 0))  # heavy padding
        _, grads = model.batch_loss_grads(batch)
        assert not np.asarray(grads["emb"])[corpus.PAD_ID].any()


# batches for the oracle comparison: ids repeat within and across tweets,
# tweets of length 0-4 are mostly or all padding, and some exceed m_max = 7
ORACLE_BATCHES = [
    [(3, 3, 5, 3, 8, 5), (5, 2), (8, 1, 3, 3, 2, 2, 7)],
    [(), (1,), (2, 2), (3, 4, 3), (5, 5, 5, 5), (6, 1, 6, 1, 6)],
    [tuple(range(1, 9)) * 2, (4,) * 10, (7, 7, 2), tuple(range(8, 0, -1))],
]


def _oracle_batches(rng):
    labelled = [
        [EncodedExample(ids, i % 2) for i, ids in enumerate(batch)] for batch in ORACLE_BATCHES
    ]
    sizes = rng.integers(0, 13, size=9)
    return labelled + [random_batch(rng, sizes=sizes, labels=[i % 2 for i in range(9)])]


def _relative(got, want) -> float:
    """Largest difference over the largest magnitude of ``want``."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-30))


class TestProjectionMatchesPackedOracle:
    """The token-projection convolution equals the im2col convolution it replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("input_rate", [None, 0.0, 0.5])
    def test_forward_and_gradients(self, dtype, input_rate):
        # None: inference, no masks; 0.0: masks with input dropout off, so the
        # pad row's occurrences carry a gradient to discard; 0.5: input dropout on
        dropout = DropoutSpec.none() if input_rate is None else DropoutSpec(input=input_rate)
        model, rng = small_model(seed=7, dropout=dropout, dtype=dtype)
        tol = 1e-12 if dtype == np.float64 else 1e-6
        mask_rng = derived_rng(7, "cnn-test-masks")
        for batch in _oracle_batches(rng):
            id_lists = [ex.ids for ex in batch]
            masks = None
            if input_rate is not None:
                masks = model.make_masks(padded_lengths(model, id_lists), mask_rng)
            want_loss, want, oracle = packed_loss_grads(model, batch, masks)
            probs, saved = model._forward(id_lists, masks)
            assert np.abs(probs - packed_forward(model, id_lists, masks)[0]).max() < tol
            for h in cnn.FILTER_HEIGHTS:
                z = saved[h]["z"]
                assert _relative(real_windows(model, id_lists, z, h), oracle[h]["z"]) < tol, h
                assert _relative(saved[h]["pooled"], oracle[h]["pooled"]) < tol, h
                arg = oracle[h]["first"][:, None] + model_argmax(z)  # as packed window indices
                assert np.array_equal(arg, first_argmax(oracle[h]))

            loss, grads = model.batch_loss_grads(batch, masks)
            assert abs(loss - want_loss) < tol
            for key in cnn.PARAM_ORDER:
                assert np.asarray(grads[key]).dtype == dtype, key
                assert _relative(grads[key], want[key]) < tol, key
            ids = oracle["ids"]
            assert np.array_equal(grads["emb"].rows, np.unique(ids))
            assert not np.asarray(grads["emb"])[corpus.PAD_ID].any()
            if input_rate == 0.0:
                assert (oracle["dx"][ids == corpus.PAD_ID] != 0).any()


class TestInferenceBlocks:
    """Blocks, window-sum runs and filter slices leave every probability as it was."""

    @pytest.fixture
    def tiny_blocks(self, monkeypatch):
        # blocks of 3 tweets, runs of 2 and slices of 3 filters: bank 5's 4 filters
        # split 3 + 1, and a block's last run holds one tweet
        monkeypatch.setattr(cnn, "INFER_BLOCK", 3)
        monkeypatch.setattr(cnn, "INFER_BATCH", 2)
        monkeypatch.setattr(cnn, "INFER_SLICE", 3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_tweet_forward_and_packed_oracle(self, tiny_blocks, dtype):
        model, rng = small_model(seed=13, dtype=dtype)
        shared = (4, 2, 6, 2)  # in blocks 0, 1 and 4; block 4 holds only this tweet
        queries = [shared, (), tuple(range(1, 9)) * 2, (7,), (), shared, (3, 5)] + [
            tuple(int(x) for x in rng.integers(1, 9, size=int(rng.integers(0, 15))))
            for _ in range(4)
        ] + [(8, 1, 8, 1, 8, 1, 8), shared]
        assert max(len(q) for q in queries) > model.cfg.m_max
        assert len(queries) % cnn.INFER_BLOCK == 1
        probs = model.predict_proba(queries)
        assert probs.shape == (len(queries),)
        if dtype == np.float64:
            assert np.abs(probs - [forward(model, q) for q in queries]).max() < 1e-12
        assert _relative(probs, packed_forward(model, queries)[0]) < 1e-6
        # a product's shape may move float32 rounding: a tweet matches itself in other
        # blocks within the oracle's tolerance, and bit for bit in the same block
        assert _relative(probs[[5, -1]], probs[[0, 0]]) < 1e-6
        one_block = queries[: cnn.INFER_BLOCK]
        assert np.array_equal(model.predict_proba(one_block), probs[: cnn.INFER_BLOCK])
        assert model.predict_proba([]).shape == (0,)


class TestPaddedPoolMatchesPackedOracle:
    """Inference's padded, length-sorted pool gives the packed pool's bytes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_blocks(self, monkeypatch, dtype, seed):
        # runs of 3 tweets and slices of 3 filters: bank 5's 4 filters split 3 + 1
        monkeypatch.setattr(cnn, "INFER_BATCH", 3)
        monkeypatch.setattr(cnn, "INFER_SLICE", 3)
        model, rng = small_model(seed=seed, dtype=dtype, m_max=12)
        m_max = model.cfg.m_max
        sizes = [0, 1, cnn.M_MIN - 1, cnn.M_MIN, m_max, m_max + 5, *rng.integers(0, 20, size=9)]
        sizes += sorted(sizes, reverse=True)  # descending: the sort must permute the block
        queries = [tuple(int(x) for x in rng.integers(1, 9, size=n)) for n in sizes]
        probs = model._block_proba(queries)
        assert np.array_equal(probs, packed_block_proba(model, queries))
        assert np.array_equal(model.predict_proba(queries), probs)

    def test_runs_and_slices_of_the_default_size(self):
        model, rng = small_model(seed=5, dtype=np.float32, vocab=60, embed_dim=16,
                                 filter_counts=(70, 70, 140), m_max=64)
        queries = [tuple(int(x) for x in rng.integers(1, 60, size=n))
                   for n in rng.integers(0, 80, size=3 * cnn.INFER_BATCH + 7)]
        assert np.array_equal(model._block_proba(queries), packed_block_proba(model, queries))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_padded_windows_never_win(self, monkeypatch, dtype):
        # every window over word 2 is large and every one over word 3 negative, so a
        # short tweet of 3s pools to zero, unless its run's padding, laid out past its
        # last window, reads the long tweet of 2s that follows it in the block
        monkeypatch.setattr(cnn, "INFER_BATCH", 4)
        model, _ = small_model(seed=3, dtype=dtype, m_max=12)
        p = model.params
        p["emb"][:] = 0.0
        p["emb"][2], p["emb"][3] = 1.0, -1.0
        for h in cnn.FILTER_HEIGHTS:
            p[f"conv{h}_w"][:] = 1.0
            p[f"conv{h}_b"][:] = 0.0
        long, short = (2,) * 12, (3,) * cnn.M_MIN
        queries = [long, short, long, short]
        probs = model._block_proba(queries)
        assert np.array_equal(probs, packed_block_proba(model, queries))
        zero = model._dense_head(np.zeros((1, model.cfg.pooled_width), dtype=dtype), {})[0]
        assert np.array_equal(probs[[1, 3]], np.repeat(zero, 2))
        assert probs[0] == probs[2] != probs[1]


@pytest.mark.parametrize("overflow", [False, True])
@pytest.mark.parametrize("h", cnn.FILTER_HEIGHTS)
def test_ties_route_to_the_first_window_never_a_repeated_one(h, overflow):
    # every word row is the same and every bias positive, so the windows over
    # words of a tweet tie; bank h alone reaches the embedding, and the batch's
    # shorter tweets, last in it, have repeated windows. With the weights
    # negative, every window over words pools to ReLU 0 while one over the pad
    # row is larger in z, and a huge head overflows d(pooled) to inf, so
    # inf * 0 puts NaN on the rows of whichever window the argmax names
    model, rng = small_model(seed=8, dtype=np.float32, vocab=30)
    m_max = model.cfg.m_max
    words = iter(rng.permutation(np.arange(2, 30)))
    sizes = [m_max + 5, m_max, cnn.M_MIN - 1, 0]
    batch = [EncodedExample(tuple(int(next(words)) for _ in range(n)), i % 2)
             for i, n in enumerate(sizes)]
    p = model.params
    p["emb"][2:] = 1.0
    col = 0
    for height, count in zip(cnn.FILTER_HEIGHTS, model.cfg.filter_counts):
        p[f"conv{height}_w"][:] = (-1.0 if overflow else 1.0) if height == h else 0.0
        p[f"conv{height}_b"][:] = 0.5
        if overflow:
            p["dense_w"][col : col + count] = 1e30 if height == h else 0.0
        col += count
    if overflow:
        p["dense_b"][:], p["out_w"][:], p["out_b"][:] = 1e-30, 1e30, -model.cfg.dense_units
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grads = model.batch_loss_grads(batch)
    assert np.isfinite(loss)
    reached = set(np.flatnonzero(np.asarray(grads["emb"]).any(axis=1)).tolist())
    assert reached == {i for ex in batch for i in ex.ids[:h]}
    if overflow:
        assert np.isnan(np.asarray(grads["emb"])[sorted(reached)]).all()


def test_inference_peak_memory_is_one_filter_slice_of_the_block_ids():
    # paper shape over 1500 tweets, one block; each distinct id's row through
    # one slice of filters is the largest temporary, so a projection through a
    # whole bank (ids x 5 x 512) or through all 4352 columns fails the bound
    rng = derived_rng(21, "cnn-test-memory")
    cfg = CnnConfig()
    model = CnnModel.init(rng.normal(0, 0.1, size=(8000, cfg.embed_dim)), cfg)
    queries = [tuple(int(x) for x in rng.integers(2, 8000, size=n))
               for n in rng.integers(0, 70, size=1500)]
    assert len(queries) <= cnn.INFER_BLOCK
    ids = np.concatenate([_pad_ids(q, cfg.m_max) for q in queries])
    item = model.dtype.itemsize
    bound = (
        len(np.unique(ids)) * (cfg.embed_dim + max(cnn.FILTER_HEIGHTS) * cnn.INFER_SLICE) * item
        + len(queries) * (cfg.pooled_width + 3 * cfg.dense_units) * item
        + len(ids) * 8 * 8  # int64 ids, their inverse, window starts and np.unique's work
    )
    tracemalloc.start()
    try:
        model.predict_proba(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


def test_training_peak_memory_is_one_snapshot_and_the_reached_rows():
    # a 40 000-row table that training reaches in fewer than 100 rows; the
    # parameters exist before tracing starts, so the bound is the best-epoch
    # snapshot, a few arrays of the reached rows and fixed slack. Dense Adam
    # moments (two more tables) or a second snapshot fail it
    rng = derived_rng(22, "cnn-test-train-memory")
    cfg = CnnConfig(embed_dim=16, filter_counts=(4, 4, 8), dense_units=8, m_max=16)
    model = CnnModel.init(rng.normal(0, 0.1, size=(40_000, cfg.embed_dim)), cfg)
    words = rng.choice(np.arange(2, 40_000), size=90, replace=False)
    train = [EncodedExample(tuple(int(x) for x in rng.choice(words, size=int(n))), i % 2)
             for i, n in enumerate(rng.integers(3, 12, size=24))]
    reached = len({i for ex in train for i in ex.ids})
    assert reached < 100
    snapshot = sum(v.nbytes for v in model.params.values())
    bound = snapshot + 16 * reached * cfg.embed_dim * model.dtype.itemsize + 256 * 1024
    tracemalloc.start()
    try:
        train_model(model, train, train[:8], TrainConfig(epochs=3, batch_size=8, seed=22))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


def test_training_peak_memory_holds_no_table_snapshot():
    # the setup above, bounded without the table: the best-epoch snapshot
    # keeps only the reached rows, so a copy of all 40 000 rows fails it
    rng = derived_rng(22, "cnn-test-train-memory")
    cfg = CnnConfig(embed_dim=16, filter_counts=(4, 4, 8), dense_units=8, m_max=16)
    model = CnnModel.init(rng.normal(0, 0.1, size=(40_000, cfg.embed_dim)), cfg)
    words = rng.choice(np.arange(2, 40_000), size=90, replace=False)
    train = [EncodedExample(tuple(int(x) for x in rng.choice(words, size=int(n))), i % 2)
             for i, n in enumerate(rng.integers(3, 12, size=24))]
    reached = len({i for ex in train for i in ex.ids})
    others = sum(v.nbytes for k, v in model.params.items() if k != "emb")
    flags = len(model.params["emb"])  # one bool per row: has a gradient reached it?
    bound = others + 16 * reached * cfg.embed_dim * model.dtype.itemsize + flags + 128 * 1024
    tracemalloc.start()
    try:
        train_model(model, train, train[:8], TrainConfig(epochs=3, batch_size=8, seed=22))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


def test_snapshot_and_log_together_hold_at_most_one_table(monkeypatch):
    # every row of the table is reached in epoch 1 and every epoch improves, so
    # a snapshot is taken after each. Between two epochs (validation, snapshot)
    # the memory held beyond Adam's two moment tables is one table (the log of
    # first-reached rows, or the snapshot) and slack, never two: the log is
    # dropped, and the old snapshot freed, before the new snapshot is taken
    rng = derived_rng(23, "cnn-test-snapshot-memory")
    cfg = CnnConfig(embed_dim=64, filter_counts=(2, 2, 4), dense_units=8, m_max=40)
    vocab = 4000
    model = CnnModel.init(rng.normal(0, 0.1, size=(vocab, cfg.embed_dim)), cfg)
    train = [EncodedExample(tuple(int(x) for x in ids), i % 2)
             for i, ids in enumerate(np.array_split(rng.permutation(vocab), 100))]
    table = model.params["emb"].nbytes
    scores = iter([0.1, 0.2, 0.3, 0.4])
    monkeypatch.setattr(cnn, "macro_f1", lambda preds, labels: next(scores))
    real_run_epoch = cnn.run_epoch
    held = []  # per gap between epochs: the peak of traced bytes in it, less Adam's moments

    def gap_ends():
        if held and held[-1] is None:
            held[-1] = tracemalloc.get_traced_memory()[1] - 2 * table

    def run_epoch(*args):
        gap_ends()
        loss = real_run_epoch(*args)
        tracemalloc.reset_peak()
        held.append(None)
        return loss

    monkeypatch.setattr(cnn, "run_epoch", run_epoch)
    tracemalloc.start()
    try:
        train_model(model, train, train[:8], TrainConfig(epochs=4, batch_size=25, seed=23))
        gap_ends()
    finally:
        tracemalloc.stop()
    assert len(held) == 4
    bound = table + table // 2
    assert all(h < bound for h in held), (held, bound)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_restore_with_rows_first_reached_after_the_best_epoch(monkeypatch, dtype):
    # epoch k trains on the first k quarters of the tweets, so epochs 3 and 4
    # reach rows epoch 2 never did; epoch 2 scores best. The restored model
    # must be, byte for byte, the full copy taken after epoch 2
    rng = derived_rng(24, "cnn-test-restore")
    cfg = CnnConfig(embed_dim=8, filter_counts=(2, 2, 4), dense_units=8, m_max=16,
                    dropout=DropoutSpec(0.2, 0.1, 0.1, 0.1, 0.2))
    emb = rng.normal(0, 0.1, size=(200, cfg.embed_dim))
    emb[150, 2] = -0.0  # a row no tweet holds keeps its bytes, sign bit too
    model = CnnModel.init(emb, cfg, seed=24, dtype=dtype)
    initial = {k: v.copy() for k, v in model.params.items()}
    train = [EncodedExample(tuple(int(x) for x in rng.integers(2, 150, size=int(n))), i % 2)
             for i, n in enumerate(rng.integers(3, 12, size=40))]
    real_run_epoch = cnn.run_epoch
    monkeypatch.setattr(cnn, "run_epoch",
                        lambda n, *args: real_run_epoch(n * args[-1] // 4, *args))
    scores = iter([0.5, 0.8, 0.6, 0.7])
    after = []  # the oracle: a full copy of the parameters after every epoch

    def macro_f1(preds, labels):
        after.append({k: v.copy() for k, v in model.params.items()})
        return next(scores)

    monkeypatch.setattr(cnn, "macro_f1", macro_f1)
    history = train_model(model, train, train[:8],
                          TrainConfig(epochs=4, batch_size=8, patience=4, seed=24))
    assert [h[2] for h in history] == [0.5, 0.8, 0.6, 0.7]
    best, last = after[1], after[3]
    late = sorted({i for ex in train[20:] for i in ex.ids} - {i for ex in train[:20] for i in ex.ids})
    assert late
    # the late rows kept their initial bytes up to epoch 2 and moved after it
    assert best["emb"][late].tobytes() == initial["emb"][late].tobytes()
    assert not np.array_equal(last["emb"][late], best["emb"][late])
    for key in cnn.PARAM_ORDER:
        assert model.params[key].tobytes() == best[key].tobytes(), key
    assert model.params["emb"][150].tobytes() == initial["emb"][150].tobytes()


# ragged padded lengths: a tweet truncated at m_max = 7, tweets shorter than
# M_MIN, an all-pad tweet and one of exactly M_MIN ids
MASK_ID_LISTS = [(3, 1, 4, 1, 5, 8), tuple(range(1, 9)) * 2, (2, 7), (), (5,) * 7, (1, 2, 3, 4, 5)]


class TestBatchedMasksMatchPerExampleDraws:
    """One draw per batch gives the bytes and generator state of one draw per site and tweet."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "dropout", [DropoutSpec(), DropoutSpec.none(), DropoutSpec(0.3, 0.1, 0.0, 0.7, 0.25)]
    )
    def test_small_model(self, dtype, dropout):
        model, _ = small_model(dropout=dropout, dtype=dtype)
        lengths = padded_lengths(model, MASK_ID_LISTS)
        assert lengths == [6, 7, 5, 5, 7, 5]
        self._check(model, lengths, seed=5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_paper_shape(self, dtype):
        model = CnnModel.init(np.zeros((3, 200)), CnnConfig(), dtype=dtype)
        self._check(model, [64, 5, 33, 64, 5, 12], seed=6)

    @staticmethod
    def _check(model, lengths, seed):
        rng, oracle_rng = derived_rng(seed, "cnn-test-masks"), derived_rng(seed, "cnn-test-masks")
        input_mask, head = model.make_masks(lengths, rng)
        oracle = [per_example_masks(model, m, oracle_rng) for m in lengths]
        want = {
            "input": np.concatenate([mk["input"] for mk in oracle]),
            0: np.stack([np.concatenate([mk[f"bank{h}"] for h in cnn.FILTER_HEIGHTS])
                         for mk in oracle]),
            1: np.stack([mk["dense"] for mk in oracle]),
        }
        assert sorted(head) == [0, 1]
        for got, key in ((input_mask, "input"), (head[0], 0), (head[1], 1)):
            assert got.dtype == want[key].dtype == model.dtype, key
            assert got.shape == want[key].shape, key
            assert got.tobytes() == want[key].tobytes(), key
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestDropout:
    def test_masked_expectation_matches_infer(self):
        # with a single active site, the next pre-activation is linear in the
        # mask, so its mean over masks must approach the no-dropout value
        base, rng = small_model(seed=9)
        ids = tuple(int(x) for x in rng.integers(1, 9, size=7))
        infer = base._forward([ids])
        m = len(infer[1]["ids"])
        n_trials, per_pass = 20000, 1000
        # one row of values per trial; trials run as copies of the tweet in one pass
        sites = {
            "input": lambda c: np.concatenate(
                [c[1][h]["z"].reshape(len(c[0]), -1) for h in (3, 4, 5)], axis=1
            ),
            "bank3": lambda c: c[1]["zd"],
            "dense": lambda c: np.log(c[0] / (1 - c[0]))[:, None],
        }
        for site, extract in sites.items():
            rates = {k: 0.0 for k in ("input", "bank3", "bank4", "bank5", "dense")}
            rates[site] = 0.5
            model = CnnModel(
                {k: v.copy() for k, v in base.params.items()},
                CnnConfig(dropout=DropoutSpec(**rates), **SMALL),
            )
            mask_rng = derived_rng(42, f"dropexp-{site}")
            acc = 0.0
            for _ in range(n_trials // per_pass):
                masks = model.make_masks([m] * per_pass, mask_rng)
                acc = acc + extract(model._forward([ids] * per_pass, masks)).sum(axis=0)
            mean = acc / n_trials
            want = extract(infer)[0]
            rel = np.abs(mean - want).max() / max(np.abs(want).max(), 1e-8)
            assert rel < 0.01, site

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            DropoutSpec(input=1.0)
        with pytest.raises(ValueError):
            DropoutSpec(bank4=-0.1)


class TestPoolingInvariance:
    def test_permuting_pad_rows_leaves_output_unchanged(self):
        model, rng = small_model(seed=6)
        ids = (2, 3)  # padded to length 5 with three pad rows
        p1 = forward(model, ids)
        # pad rows are identical zero vectors; any permutation of positions
        # 2..4 yields the same tweet matrix, hence bitwise the same output
        t = embed_and_pad(ids, model.params["emb"], model.cfg.m_max)
        t_perm = t.copy()
        t_perm[[2, 3, 4]] = t_perm[[4, 2, 3]]
        assert np.array_equal(t, t_perm)
        assert forward(model, ids) == p1


class TestTraining:
    def _toy(self, rng, n=10):
        return [
            EncodedExample(
                tuple(int(x) for x in rng.integers(1, 20, size=int(rng.integers(5, 9)))),
                i % 2,
            )
            for i in range(n)
        ]

    def test_overfits_ten_examples(self):
        rng = derived_rng(3, "overfit")
        emb = rng.uniform(-0.1, 0.1, size=(20, 8))
        cfg = CnnConfig(
            embed_dim=8, filter_counts=(2, 2, 4), dense_units=8, m_max=16,
            dropout=DropoutSpec.none(),
        )
        model = CnnModel.init(emb, cfg, seed=3)
        train = self._toy(rng)
        tcfg = TrainConfig(epochs=200, batch_size=10, lr=1e-2, patience=200, seed=3)
        history = train_model(model, train, train, tcfg)
        assert min(h[1] for h in history) < 0.05

    def test_patience_zero_runs_one_epoch(self):
        rng = derived_rng(4, "patience")
        emb = rng.uniform(-0.1, 0.1, size=(20, 8))
        cfg = CnnConfig(embed_dim=8, filter_counts=(2, 2, 4), dense_units=8, m_max=16)
        model = CnnModel.init(emb, cfg, seed=4)
        train = self._toy(rng)
        history = train_model(
            model, train, train, TrainConfig(epochs=50, batch_size=5, patience=0, seed=4)
        )
        assert len(history) == 1

    def test_fixed_seed_reproduces_history(self):
        rng = derived_rng(5, "repro")
        emb = rng.uniform(-0.1, 0.1, size=(20, 8))
        cfg = CnnConfig(embed_dim=8, filter_counts=(2, 2, 4), dense_units=8, m_max=16)
        train = self._toy(rng, 16)
        val = self._toy(rng, 6)
        tcfg = TrainConfig(epochs=3, batch_size=4, patience=3, seed=7)
        h1 = train_model(CnnModel.init(emb, cfg, seed=7), train, val, tcfg)
        h2 = train_model(CnnModel.init(emb, cfg, seed=7), train, val, tcfg)
        assert h1 == h2

    def test_rows_no_training_tweet_contains_keep_their_initial_bytes(self):
        rng = derived_rng(6, "untouched-rows")
        emb = rng.uniform(-0.1, 0.1, size=(30, 8)).astype(np.float32)
        emb[29, 3] = -0.0  # its sign bit must survive too
        cfg = CnnConfig(embed_dim=8, filter_counts=(2, 2, 4), dense_units=8, m_max=16)
        model = CnnModel.init(emb, cfg, seed=6)
        initial = model.params["emb"].copy()
        train = self._toy(rng, 12)  # ids 1..19
        val = [EncodedExample((22, 25, 29, 3), 1), EncodedExample((21, 24), 0)]
        train_model(model, train, val, TrainConfig(epochs=3, batch_size=4, seed=6))
        reached = {i for ex in train for i in ex.ids}
        untouched = [i for i in range(len(emb)) if i not in reached]
        assert {21, 22, 24, 25, 29} <= set(untouched)
        final = model.params["emb"]
        assert final[untouched].tobytes() == initial[untouched].tobytes()
        assert not np.array_equal(final[sorted(reached)], initial[sorted(reached)])

    def test_empty_train_rejected(self):
        model, _ = small_model()
        with pytest.raises(ValueError):
            train_model(model, [], [EncodedExample((1,), 1)], TrainConfig())


class TestShapeLaw:
    def test_bad_filter_ratio_rejected(self):
        with pytest.raises(ValueError):
            CnnConfig(embed_dim=8, filter_counts=(2, 2, 3), dense_units=8)

    def test_full_scale_counts_accepted(self):
        cfg = CnnConfig()
        assert cfg.filter_counts == (256, 256, 512)
        assert cfg.pooled_width == 1024

    def test_dense_width_mismatch_rejected(self):
        model, _ = small_model()
        bad = {k: v.copy() for k, v in model.params.items()}
        bad["dense_w"] = np.zeros((7, 8))  # pooled width is 8
        with pytest.raises(ValueError, match="does not equal"):
            CnnModel(bad, model.cfg)

    @pytest.mark.parametrize(
        "key, shape",
        [("out_b", (2,)), ("conv3_b", (1,)), ("out_w", (8, 1)), ("dense_b", (7,)),
         ("conv5_w", (4, 39)), ("emb", (9, 7))],
    )
    def test_every_parameter_shape_checked(self, key, shape):
        model, _ = small_model()
        bad = {k: v.copy() for k, v in model.params.items()}
        bad[key] = np.zeros(shape)
        with pytest.raises(ValueError, match=f"{key} shape .* does not equal"):
            CnnModel(bad, model.cfg)

    def test_m_max_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            CnnConfig(embed_dim=8, filter_counts=(2, 2, 4), dense_units=8, m_max=4)


class TestCheckpoint:
    def _trained_small(self, tmp_path):
        rng = derived_rng(8, "ckpt")
        emb = rng.uniform(-0.1, 0.1, size=(12, 8)).astype(np.float32)
        cfg = CnnConfig(embed_dim=8, filter_counts=(2, 2, 4), dense_units=8, m_max=16)
        return CnnModel.init(emb, cfg, seed=8, dtype=np.float32)

    def test_roundtrip_bit_exact(self, tmp_path):
        model = self._trained_small(tmp_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, "abc123")
        loaded = load_checkpoint(path)
        for key in cnn.PARAM_ORDER:
            assert np.array_equal(loaded.params[key], model.params[key])
            assert loaded.params[key].dtype == np.dtype("<f4")
        assert loaded.cfg == model.cfg

    def test_save_and_load_peak_memory_is_the_parameters(self, tmp_path):
        # save writes each parameter's own buffer, and load reads each parameter
        # into its own array: a bytes copy per parameter on save, or a
        # whole-blob read with a copy per parameter on load, fails the bounds
        cfg = CnnConfig(embed_dim=32, filter_counts=(4, 4, 8), dense_units=8, m_max=16)
        model = CnnModel.init(np.zeros((20_000, cfg.embed_dim)), cfg)
        path = tmp_path / "model.ckpt"
        params = sum(v.nbytes for v in model.params.values())
        peaks = []
        for run in (lambda: save_checkpoint(model, path), lambda: load_checkpoint(path)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 1024 * 1024, (peaks, params)
        assert peaks[1] < params + 1024 * 1024, (peaks, params)

    def test_truncated_file_rejected(self, tmp_path):
        model = self._trained_small(tmp_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="length mismatch"):
            load_checkpoint(path)

    def test_pooled_width_mismatch_rejected(self, tmp_path):
        model = self._trained_small(tmp_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        text = path.read_bytes()
        patched = text.replace(b"pooled_width 8", b"pooled_width 9")
        path.write_bytes(patched)
        with pytest.raises(ValueError, match="8 expected"):
            load_checkpoint(path)

    @pytest.mark.parametrize("size", [b"1", b"0", b"-1", b"-12"])
    def test_vocab_size_below_two_rejected(self, tmp_path, size):
        model = self._trained_small(tmp_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes().replace(b"vocab_size 12", b"vocab_size " + size))
        with pytest.raises(ValueError, match="'vocab_size' must be >= 2"):
            load_checkpoint(path)

    def test_manifest_that_is_not_utf8_rejected(self, tmp_path):
        model = self._trained_small(tmp_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes().replace(b"embed_dim", b"\xefmbed_dim"))
        with pytest.raises(ValueError, match="checkpoint manifest is not UTF-8 text"):
            load_checkpoint(path)

    def test_vocab_hash_mismatch_warns(self, tmp_path):
        model = self._trained_small(tmp_path)
        path = tmp_path / "model.ckpt"
        vocab = corpus.build_vocab([["a"] * 2] * 2, min_count=1)
        save_checkpoint(model, path, vocab_hash(vocab))
        other = corpus.build_vocab([["b"] * 2] * 2, min_count=1)
        with pytest.warns(UserWarning, match="vocab hash"):
            load_checkpoint(path, other)

    def test_double_roundtrip_stable(self, tmp_path):
        model = self._trained_small(tmp_path)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1, "h")
        save_checkpoint(load_checkpoint(p1), p2, "h")
        assert p1.read_bytes() == p2.read_bytes()


class TestConcurrency:
    def test_concurrent_inference_matches_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        model, rng = small_model(seed=10)
        queries = [
            tuple(int(x) for x in rng.integers(1, 9, size=int(rng.integers(1, 8))))
            for _ in range(40)
        ]
        serial = [forward(model, q) for q in queries]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda q: forward(model, q), queries))
        assert threaded == serial


class TestAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_step_matches_textbook_bitwise(self, dtype):
        rng = derived_rng(0, f"adam-{np.dtype(dtype).name}")
        shape = (4, 3)
        params = {k: rng.normal(size=shape).astype(dtype) for k in cnn.PARAM_ORDER}
        # magnitudes from exactly 0 up to 1e3, both signs
        grads_seq = [
            {
                k: (rng.choice([-1.0, 0.0, 1.0], size=shape)
                    * 10.0 ** rng.uniform(-6, 3, size=shape)).astype(dtype)
                for k in cnn.PARAM_ORDER
            }
            for _ in range(200)
        ]
        expected = {k: v.copy() for k, v in params.items()}
        m, v = adam_textbook(expected, grads_seq)
        opt = Adam(params)
        for grads in grads_seq:
            opt.step(grads)
        for k in cnn.PARAM_ORDER:
            assert np.array_equal(params[k], expected[k]), k
            assert np.array_equal(opt.m[k], m[k]), k
            assert np.array_equal(opt.v[k], v[k]), k
            assert params[k].dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_sparse_step_matches_textbook_on_dense_gradients(self, dtype):
        rng = derived_rng(1, f"adam-sparse-{np.dtype(dtype).name}")
        vocab, n, steps = 12, 3, 200
        params = {k: rng.normal(size=(4, 3)).astype(dtype) for k in cnn.PARAM_ORDER}
        params["emb"] = rng.normal(size=(vocab, n)).astype(dtype)
        params["emb"][corpus.PAD_ID] = 0.0

        def present(t):
            """Rows of step t's gradient: none at step 1, then pad and 1-3 always,
            4 only late, 5 absent for steps 11-119, 11 never, the rest at random."""
            if t == 1:  # no rows while the moments hold none either
                return np.zeros(0, dtype=np.intp)
            rows = {corpus.PAD_ID, 1, 2, 3}
            rows |= {4} if t > 150 else set()
            rows |= {5} if t <= 10 or t >= 120 else set()
            rows |= {int(r) for r in range(6, 11) if rng.random() < 0.3}
            return np.array(sorted(rows))

        grads_seq = []
        for t in range(1, steps + 1):
            grads = {
                k: (rng.choice([-1.0, 0.0, 1.0], size=(4, 3))
                    * 10.0 ** rng.uniform(-6, 3, size=(4, 3))).astype(dtype)
                for k in cnn.PARAM_ORDER
            }
            rows = present(t)
            # magnitudes from 1e-6 to 1e3 with exact 0.0 and -0.0 among them
            signs = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(len(rows), n))
            values = (signs * 10.0 ** rng.uniform(-6, 3, size=signs.shape)).astype(dtype)
            values[rows == corpus.PAD_ID] = 0.0
            grads["emb"] = cnn.RowSparse(rows, values, (vocab, n))
            grads_seq.append(grads)

        expected = {k: v.copy() for k, v in params.items()}
        m, v = adam_textbook(
            expected, [{k: np.asarray(g) for k, g in grads.items()} for grads in grads_seq]
        )
        opt = Adam(params)
        for grads in grads_seq:
            opt.step(grads)
        for k in cnn.PARAM_ORDER:
            assert np.array_equal(params[k], expected[k]), k
            assert params[k].tobytes() == expected[k].tobytes(), k
            assert np.array_equal(opt.m[k], m[k]), k
            assert np.array_equal(opt.v[k], v[k]), k
            assert params[k].dtype == dtype
        assert 11 not in opt.m["emb"].rows
        assert params["emb"][11].tobytes() == expected["emb"][11].tobytes()

    def test_moves_toward_minimum(self):
        params = {k: np.zeros(1) for k in cnn.PARAM_ORDER}
        params["out_b"] = np.array([5.0])
        opt = Adam(params, lr=0.1)
        for _ in range(500):
            grads = {k: np.zeros(1) for k in cnn.PARAM_ORDER}
            grads["out_b"] = 2.0 * params["out_b"]  # d/dx of x^2
            opt.step(grads)
        assert abs(params["out_b"][0]) < 1e-2


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_follows_a_change_of_gradient_form_bitwise(dtype):
    # emb: RowSparse gradients for 40 steps, dense for 20, RowSparse again;
    # conv3_w: dense for 30 steps, then RowSparse; the rest dense throughout
    rng = derived_rng(2, f"adam-forms-{np.dtype(dtype).name}")
    vocab, n = 10, 3
    params = {k: rng.normal(size=(4, n)).astype(dtype) for k in cnn.PARAM_ORDER}
    params["emb"] = rng.normal(size=(vocab, n)).astype(dtype)
    params["emb"][9, 1] = -0.0  # no gradient ever holds row 9, or row 3 of conv3_w
    params["conv3_w"][3, 2] = -0.0

    def gradient(shape, rows, dense):
        # magnitudes from 1e-6 to 1e3 with exact 0.0 and -0.0 among them
        signs = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(len(rows),) + shape[1:])
        values = (signs * 10.0 ** rng.uniform(-6, 3, size=signs.shape)).astype(dtype)
        g = cnn.RowSparse(np.array(rows, dtype=np.int64), values, shape)
        return np.asarray(g) if dense else g

    grads_seq = []
    for t in range(100):
        grads = {k: gradient((4, n), range(4), True) for k in cnn.PARAM_ORDER}
        some = [r for r in range(1, 9) if rng.random() < 0.4]
        grads["emb"] = gradient((vocab, n), some, 40 <= t < 60)
        grads["conv3_w"] = gradient((4, n), [r for r in range(3) if rng.random() < 0.5], t < 30)
        grads_seq.append(grads)

    for steps, compact in [(40, True), (60, False), (100, False)]:
        expected = {k: v.copy() for k, v in params.items()}
        m, v = adam_textbook(
            expected, [{k: np.asarray(g) for k, g in grads.items()} for grads in grads_seq[:steps]]
        )
        got = {k: v.copy() for k, v in params.items()}
        opt = Adam(got)
        for grads in grads_seq[:steps]:
            opt.step(grads)
        assert isinstance(opt.m["emb"], cnn.RowSparse) == compact
        assert isinstance(opt.m["conv3_w"], cnn.RowSparse) == (steps <= 30)
        for k in cnn.PARAM_ORDER:
            assert got[k].tobytes() == expected[k].tobytes(), (steps, k)
            assert np.asarray(opt.m[k]).tobytes() == m[k].tobytes(), (steps, k)
            assert np.asarray(opt.v[k]).tobytes() == v[k].tobytes(), (steps, k)
        assert got["emb"][9].tobytes() == params["emb"][9].tobytes()
        assert got["conv3_w"][3].tobytes() == params["conv3_w"][3].tobytes()
