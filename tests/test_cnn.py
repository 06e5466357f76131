import math

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


def small_model(seed=0, dropout=None, dtype=np.float64, vocab=9, randomize_biases=True):
    rng = derived_rng(seed, "cnn-test-data")
    emb = rng.normal(0, 0.5, size=(vocab, SMALL["embed_dim"]))
    cfg = CnnConfig(dropout=dropout or DropoutSpec.none(), **SMALL)
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
            for ci in range(count):
                w = model.params[f"conv{h}_w"][ci].reshape(h, -1)
                b = float(model.params[f"conv{h}_b"][ci])
                feats = [conv_feature(w, b, t, k) for k in range(t.shape[0] - h + 1)]
                value, arg = max_pool(feats)
                a = np.maximum(c[h]["z"][:, ci], 0.0)
                assert value == pytest.approx(float(a.max()))
                assert arg == int(c[h]["argmax"][0, ci])


class TestForward:
    def test_zero_weights_give_half(self):
        model, _ = small_model(randomize_biases=False)
        for k in model.params:
            model.params[k][...] = 0.0
        assert model.forward((1, 2, 3)) == 0.5
        assert model.forward(()) == 0.5

    def test_infer_deterministic(self):
        model, rng = small_model(seed=1)
        ids = tuple(int(x) for x in rng.integers(1, 9, size=6))
        assert model.forward(ids) == model.forward(ids)

    def test_train_with_keep_one_equals_infer(self):
        model, rng = small_model(seed=2, dropout=DropoutSpec.none())
        ids = tuple(int(x) for x in rng.integers(1, 9, size=6))
        mask_rng = derived_rng(0, "masks")
        masks = model.make_masks(len(_pad_ids(ids, model.cfg.m_max)), mask_rng)
        assert model._forward([ids], [masks])[0][0] == model.forward(ids)

    def test_probability_in_unit_interval(self):
        model, rng = small_model(seed=3)
        for _ in range(5):
            ids = tuple(int(x) for x in rng.integers(1, 9, size=4))
            assert 0.0 < model.forward(ids) < 1.0

    def test_predict_threshold(self):
        model, _ = small_model(randomize_biases=False)
        for k in model.params:
            model.params[k][...] = 0.0
        assert model.predict((1, 2)) == 1  # p = 0.5 ties to HOF


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
        assert np.abs(probs - [model.forward(q) for q in queries]).max() < 1e-12
        assert model.predict_proba([]).shape == (0,)

    def test_batch_gradients_equal_mean_of_single_example_gradients(self):
        model, rng = small_model(seed=12, dropout=DropoutSpec())
        batch = random_batch(rng, sizes=(0, 3, 12, 7, 5), labels=(1, 0, 1, 0, 1))
        mask_rng = derived_rng(12, "cnn-test-masks")
        masks = [
            model.make_masks(len(_pad_ids(ex.ids, model.cfg.m_max)), mask_rng)
            for ex in batch
        ]
        loss, grads = model.batch_loss_grads(batch, masks)
        singles = [model.batch_loss_grads([ex], [mk]) for ex, mk in zip(batch, masks)]
        assert abs(loss - np.mean([single_loss for single_loss, _ in singles])) < 1e-12
        for key in cnn.PARAM_ORDER:
            mean = sum(g[key] for _, g in singles) / len(batch)
            assert np.abs(grads[key] - mean).max() < 1e-12, key


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
            masks = [
                model.make_masks(max(min(len(ex.ids), 7), 5), mask_rng) for ex in batch
            ]
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
        assert not grads["emb"][corpus.PAD_ID].any()


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
                base.copy_params(), CnnConfig(dropout=DropoutSpec(**rates), **SMALL)
            )
            mask_rng = derived_rng(42, f"dropexp-{site}")
            acc = 0.0
            for _ in range(n_trials // per_pass):
                masks = [model.make_masks(m, mask_rng) for _ in range(per_pass)]
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
        p1 = model.forward(ids)
        # pad rows are identical zero vectors; any permutation of positions
        # 2..4 yields the same tweet matrix, hence bitwise the same output
        t = embed_and_pad(ids, model.params["emb"], model.cfg.m_max)
        t_perm = t.copy()
        t_perm[[2, 3, 4]] = t_perm[[4, 2, 3]]
        assert np.array_equal(t, t_perm)
        assert model.forward(ids) == p1


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
        bad = model.copy_params()
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
        bad = model.copy_params()
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
        serial = [model.forward(q) for q in queries]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(model.forward, queries))
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

    def test_moves_toward_minimum(self):
        params = {k: np.zeros(1) for k in cnn.PARAM_ORDER}
        params["out_b"] = np.array([5.0])
        opt = Adam(params, lr=0.1)
        for _ in range(500):
            grads = {k: np.zeros(1) for k in cnn.PARAM_ORDER}
            grads["out_b"] = 2.0 * params["out_b"]  # d/dx of x^2
            opt.step(grads)
        assert abs(params["out_b"][0]) < 1e-2
