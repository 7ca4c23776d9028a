"""Layer tests: shapes, reference checks against scipy, numeric gradients."""

import numpy as np
import pytest
from scipy import signal

from repro import nn

from ..conftest import numeric_gradient


def check_param_gradients(model, loss_fn_closure, params, indices=(0, 1), tol=1e-6):
    """Compare analytic parameter gradients against central differences."""
    for p in params:
        sample = [i for i in indices if i < p.size]
        numeric = numeric_gradient(loss_fn_closure, p.data, sample)
        for idx, num in numeric.items():
            analytic = p.grad.ravel()[idx]
            assert analytic == pytest.approx(num, abs=1e-6), (
                f"param {p.name} idx {idx}: analytic {analytic} vs numeric {num}"
            )


class TestLinear:
    def test_forward_matches_manual(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        x = rng.standard_normal((4, 3))
        np.testing.assert_allclose(
            layer(x), x @ layer.weight.data.T + layer.bias.data
        )

    def test_no_bias(self, rng):
        layer = nn.Linear(3, 2, bias=False, rng=rng)
        x = rng.standard_normal((4, 3))
        np.testing.assert_allclose(layer(x), x @ layer.weight.data.T)
        assert len(layer.parameters()) == 1

    def test_rejects_wrong_rank(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        with pytest.raises(ValueError):
            layer(rng.standard_normal((2, 3, 3)))

    def test_gradients(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        x = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 2))
        mse = nn.MSELoss()

        def loss():
            return mse(layer(x), target)

        loss()
        layer.zero_grad()
        layer.backward(mse.backward())
        check_param_gradients(layer, loss, layer.parameters(), indices=(0, 3))

    def test_input_gradient(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        x = rng.standard_normal((4, 3))
        mse = nn.MSELoss()
        target = np.zeros((4, 2))
        mse(layer(x), target)
        grad_in = layer.backward(mse.backward())
        eps = 1e-6
        x2 = x.copy()
        x2[1, 2] += eps
        plus = mse(layer(x2), target)
        x2[1, 2] -= 2 * eps
        minus = mse(layer(x2), target)
        assert grad_in[1, 2] == pytest.approx((plus - minus) / (2 * eps), abs=1e-6)

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            nn.Linear(3, 2, rng=rng).backward(np.zeros((1, 2)))

    def test_gradient_accumulation(self, rng):
        """Two backward passes accumulate (+=) rather than overwrite."""
        layer = nn.Linear(3, 2, rng=rng)
        x = rng.standard_normal((4, 3))
        mse = nn.MSELoss()
        mse(layer(x), np.zeros((4, 2)))
        layer.backward(mse.backward())
        once = layer.weight.grad.copy()
        mse(layer(x), np.zeros((4, 2)))
        layer.backward(mse.backward())
        np.testing.assert_allclose(layer.weight.grad, 2 * once)


class TestConv2d:
    @pytest.mark.parametrize("padding,kernel", [(0, 3), (1, 3), (2, 5)])
    def test_forward_matches_scipy(self, rng, padding, kernel):
        conv = nn.Conv2d(2, 3, kernel, padding=padding, rng=rng)
        x = rng.standard_normal((2, 2, 10, 10))
        out = conv(x)
        xp = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
        for n in range(2):
            for o in range(3):
                ref = sum(
                    signal.correlate(xp[n, i], conv.weight.data[o, i], mode="valid")
                    for i in range(2)
                ) + conv.bias.data[o]
                np.testing.assert_allclose(out[n, o], ref, atol=1e-10)

    def test_stride(self, rng):
        conv = nn.Conv2d(1, 1, 2, stride=2, rng=rng)
        out = conv(rng.standard_normal((1, 1, 8, 8)))
        assert out.shape == (1, 1, 4, 4)

    def test_rejects_wrong_channels(self, rng):
        conv = nn.Conv2d(3, 1, 3, rng=rng)
        with pytest.raises(ValueError):
            conv(rng.standard_normal((1, 2, 8, 8)))

    def test_batch_independence(self, rng):
        """Each sample's output depends only on that sample (regression
        test for the im2col column-ordering bug)."""
        conv = nn.Conv2d(1, 2, 3, padding=1, rng=rng)
        a = rng.standard_normal((1, 1, 6, 6))
        b = rng.standard_normal((1, 1, 6, 6))
        both = conv(np.concatenate([a, b]))
        np.testing.assert_allclose(both[0], conv(a)[0], atol=1e-12)
        np.testing.assert_allclose(both[1], conv(b)[0], atol=1e-12)

    def test_gradients(self, rng):
        conv = nn.Conv2d(2, 2, 3, padding=1, rng=rng)
        x = rng.standard_normal((2, 2, 5, 5))
        target = rng.standard_normal((2, 2, 5, 5))
        mse = nn.MSELoss()

        def loss():
            return mse(conv(x), target)

        loss()
        conv.zero_grad()
        conv.backward(mse.backward())
        check_param_gradients(conv, loss, conv.parameters(), indices=(0, 7))

    def test_input_gradient(self, rng):
        conv = nn.Conv2d(1, 1, 3, padding=1, rng=rng)
        x = rng.standard_normal((1, 1, 4, 4))
        mse = nn.MSELoss()
        target = np.zeros((1, 1, 4, 4))
        mse(conv(x), target)
        grad_in = conv.backward(mse.backward())
        eps = 1e-6
        x2 = x.copy()
        x2[0, 0, 2, 1] += eps
        plus = mse(conv(x2), target)
        x2[0, 0, 2, 1] -= 2 * eps
        minus = mse(conv(x2), target)
        assert grad_in[0, 0, 2, 1] == pytest.approx((plus - minus) / (2 * eps), abs=1e-6)


WRONG_LAYOUT_CASES = {
    "linear": (lambda rng: nn.Linear(3, 2, rng=rng), (4, 3), "N, 3"),
    "conv2d": (
        lambda rng: nn.Conv2d(2, 3, kernel_size=3, padding=1, rng=rng),
        (4, 2, 6, 6),
        "N, 2, H, W",
    ),
}


@pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "unstacked"])
@pytest.mark.parametrize("kind", sorted(WRONG_LAYOUT_CASES))
def test_wrong_layout_input_raises(rng, kind, stacked):
    # A stacked layer fed one model's batch, or an unstacked layer fed a
    # (K, ...) stack, must fail loudly and name the layout it expected.
    make, single_shape, dims = WRONG_LAYOUT_CASES[kind]
    layer = make(rng)
    name = type(layer).__name__
    if stacked:
        vector = nn.parameters_to_vector(layer)
        nn.stack_parameters(np.stack([vector, vector]), layer)
        x = rng.standard_normal(single_shape)
        expected = rf"^client-batched {name} expects \(K, {dims}\), got shape"
    else:
        x = rng.standard_normal((2,) + single_shape)
        expected = rf"^{name} expects \({dims}\), got shape"
    with pytest.raises(ValueError, match=expected):
        layer(x)


class TestMaxPool2d:
    def test_forward_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = nn.MaxPool2d(2)(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            nn.MaxPool2d(2)(np.zeros((1, 1, 5, 5)))

    def test_gradient_routes_to_max(self):
        pool = nn.MaxPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        pool(x)
        grad = pool.backward(np.array([[[[10.0]]]]))
        np.testing.assert_array_equal(grad, [[[[0, 0], [0, 10.0]]]])

    def test_tie_splits_gradient(self):
        pool = nn.MaxPool2d(2)
        x = np.full((1, 1, 2, 2), 5.0)
        pool(x)
        grad = pool.backward(np.array([[[[8.0]]]]))
        np.testing.assert_allclose(grad, np.full((1, 1, 2, 2), 2.0))
        assert grad.sum() == pytest.approx(8.0)

    def test_numeric_gradient(self, rng):
        pool = nn.MaxPool2d(2)
        x = rng.standard_normal((1, 1, 4, 4))
        mse = nn.MSELoss()
        target = np.zeros((1, 1, 2, 2))
        mse(pool(x), target)
        grad_in = pool.backward(mse.backward())
        eps = 1e-6
        x2 = x.copy()
        x2[0, 0, 1, 1] += eps
        plus = mse(pool(x2), target)
        x2[0, 0, 1, 1] -= 2 * eps
        minus = mse(pool(x2), target)
        assert grad_in[0, 0, 1, 1] == pytest.approx((plus - minus) / (2 * eps), abs=1e-5)


class TestFlatten:
    def test_roundtrip(self, rng):
        flat = nn.Flatten()
        x = rng.standard_normal((3, 2, 4, 4))
        out = flat(x)
        assert out.shape == (3, 32)
        back = flat.backward(out)
        np.testing.assert_array_equal(back, x)


class TestDropout:
    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)
        with pytest.raises(ValueError):
            nn.Dropout(-0.1)

    def test_inverted_scaling_preserves_mean(self, rng):
        drop = nn.Dropout(0.5, rng=rng)
        x = np.ones((200, 200))
        out = drop(x)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_backward_uses_same_mask(self, rng):
        drop = nn.Dropout(0.5, rng=rng)
        x = np.ones((10, 10))
        out = drop(x)
        grad = drop.backward(np.ones_like(x))
        np.testing.assert_array_equal((out == 0), (grad == 0))

    def test_p_zero_is_identity(self, rng):
        drop = nn.Dropout(0.0, rng=rng)
        x = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(drop(x), x)
