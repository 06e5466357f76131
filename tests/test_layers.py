import numpy as np
import pytest

from hofkit.layers import dense_backward, dense_forward, dropout_mask, run_epoch
from hofkit.seeding import derived_rng

from gradcheck import finite_difference, group_relative_error


def cnn_mask_oracle(size, rate, rng, dtype):
    """The CNN's own mask formula before both models shared one."""
    keep = 1.0 - rate
    mask = (rng.random(size) < keep).astype(dtype)
    return mask / dtype.type(keep)


def dnn_mask_oracle(size, rate, rng):
    """The DNN's own mask formula before both models shared one."""
    keep = 1.0 - rate
    return (rng.random(size) < keep).astype(np.float64) / keep


class TestDropoutMask:
    @pytest.mark.parametrize("rate", [0.0, 0.2, 0.5, 0.9])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_cnn_formula(self, rate, dtype):
        got = dropout_mask(257, rate, derived_rng(3, "mask"), dtype)
        want = cnn_mask_oracle(257, rate, derived_rng(3, "mask"), np.dtype(dtype))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("rate", [0.0, 0.2, 0.5, 0.9])
    def test_equals_dnn_formula(self, rate):
        got = dropout_mask(257, rate, derived_rng(4, "mask"), np.float64)
        want = dnn_mask_oracle(257, rate, derived_rng(4, "mask"))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def three_layer_stack(seed):
    rng = derived_rng(seed, "layers-stack")
    dims = [6, 5, 4, 3]
    layers = [
        (rng.normal(size=(dims[i], dims[i + 1])), rng.normal(size=dims[i + 1]))
        for i in range(3)
    ]
    x = rng.normal(size=(4, dims[0]))
    masks = {
        0: dropout_mask((4, dims[0]), 0.3, rng, np.float64),
        2: dropout_mask((4, dims[2]), 0.5, rng, np.float64),
    }
    weights = rng.normal(size=(4, dims[-1]))  # loss = sum(weights * logits)
    return layers, x, masks, weights


class TestDenseBackward:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        layers, x, masks, weights = three_layer_stack(seed)

        def loss():
            return float((weights * dense_forward(x, layers, masks)[1][-1]).sum())

        acts, zs = dense_forward(x, layers, masks)
        grads, dx = dense_backward(weights, layers, acts, zs, masks)
        for (w, b), (dw, db) in zip(layers, grads):
            assert group_relative_error(dw, finite_difference(loss, w, h=1e-6)) < 1e-6
            assert group_relative_error(db, finite_difference(loss, b, h=1e-6)) < 1e-6
        assert group_relative_error(dx, finite_difference(loss, x, h=1e-6)) < 1e-6

    def test_relu_after_every_layer_but_the_last(self):
        layers = [(np.eye(2), np.zeros(2)), (np.eye(2), np.zeros(2))]
        acts, zs = dense_forward(np.array([[-1.0, 2.0]]), layers, {})
        assert np.array_equal(zs[0], [[-1.0, 2.0]])
        assert np.array_equal(acts[1], [[0.0, 2.0]])
        assert np.array_equal(zs[1], [[0.0, 2.0]])
        acts, zs = dense_forward(np.array([[1.0, 2.0]]), [(-np.eye(2), np.zeros(2))], {})
        assert np.array_equal(zs[-1], [[-1.0, -2.0]])  # no ReLU on the logits


class TestRunEpoch:
    def test_visits_every_example_once_and_weights_the_mean(self):
        seen = []

        def loss_grads(idx):
            seen.extend(idx.tolist())
            return float(len(idx)), None

        mean = run_epoch(10, 4, derived_rng(0, "epoch"), loss_grads, lambda g: None, 1)
        assert sorted(seen) == list(range(10))
        assert mean == pytest.approx((4 * 4 + 4 * 4 + 2 * 2) / 10)

    def test_non_finite_loss_raises_before_the_step(self):
        steps = []
        with pytest.raises(RuntimeError, match="non-finite loss at epoch 3"):
            run_epoch(
                4, 2, derived_rng(0, "epoch"), lambda idx: (float("nan"), None),
                steps.append, 3,
            )
        assert steps == []
