"""Loss function tests: reference values and gradient identities."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F


class TestSoftmaxCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = rng.standard_normal((4, 5))
        labels = np.array([0, 2, 4, 1])
        loss = nn.SoftmaxCrossEntropy()(logits, labels)
        probs = F.softmax(logits)
        manual = -np.mean(np.log(probs[np.arange(4), labels]))
        assert loss == pytest.approx(manual, rel=1e-12)

    def test_perfect_prediction_near_zero(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert nn.SoftmaxCrossEntropy()(logits, np.array([0, 1])) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_prediction_log_c(self):
        logits = np.zeros((3, 10))
        loss = nn.SoftmaxCrossEntropy()(logits, np.array([0, 5, 9]))
        assert loss == pytest.approx(np.log(10))

    def test_gradient_formula(self, rng):
        logits = rng.standard_normal((4, 5))
        labels = np.array([0, 2, 4, 1])
        ce = nn.SoftmaxCrossEntropy()
        ce(logits, labels)
        grad = ce.backward()
        expected = F.softmax(logits)
        expected[np.arange(4), labels] -= 1.0
        np.testing.assert_allclose(grad, expected / 4, atol=1e-12)

    def test_gradient_rows_sum_to_zero(self, rng):
        ce = nn.SoftmaxCrossEntropy()
        ce(rng.standard_normal((6, 3)), np.array([0, 1, 2, 0, 1, 2]))
        np.testing.assert_allclose(ce.backward().sum(axis=1), np.zeros(6), atol=1e-12)

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ValueError):
            nn.SoftmaxCrossEntropy()(rng.standard_normal(5), np.array([0]))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            nn.SoftmaxCrossEntropy().backward()

    @pytest.mark.parametrize("labels", [[1], [[1, 1, 1, 1]], [1, 1, 1]])
    def test_rejects_labels_not_matching_logits(self, labels):
        # Labels that only broadcast against the (N,) row index must not
        # score as N copies of one label.
        with pytest.raises(ValueError, match=r"got \(4, 3\) and"):
            nn.SoftmaxCrossEntropy()(np.zeros((4, 3)), np.array(labels))


class TestBCELoss:
    def test_known_value(self):
        pred = np.array([[0.8, 0.2]])
        target = np.array([[1.0, 0.0]])
        expected = -(np.log(0.8) + np.log(0.8)) / 2
        assert nn.BCELoss()(pred, target) == pytest.approx(expected)

    def test_reductions_relate(self, rng):
        pred = rng.random((3, 4)) * 0.9 + 0.05
        target = (rng.random((3, 4)) > 0.5).astype(float)
        mean = nn.BCELoss("mean")(pred, target)
        total = nn.BCELoss("sum")(pred, target)
        per_sample = nn.BCELoss("sum_per_sample")(pred, target)
        assert total == pytest.approx(mean * 12)
        assert per_sample == pytest.approx(total / 3)

    def test_invalid_reduction(self):
        with pytest.raises(ValueError):
            nn.BCELoss("median")

    def test_clipping_avoids_nan(self):
        loss = nn.BCELoss()(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
        assert np.isfinite(loss)

    @pytest.mark.parametrize("reduction", ["mean", "sum", "sum_per_sample"])
    def test_gradient_numeric(self, rng, reduction):
        pred = rng.random((2, 3)) * 0.8 + 0.1
        target = (rng.random((2, 3)) > 0.5).astype(float)
        bce = nn.BCELoss(reduction)
        bce(pred, target)
        grad = bce.backward()
        eps = 1e-7
        p2 = pred.copy()
        p2[1, 2] += eps
        plus = nn.BCELoss(reduction)(p2, target)
        p2[1, 2] -= 2 * eps
        minus = nn.BCELoss(reduction)(p2, target)
        assert grad[1, 2] == pytest.approx((plus - minus) / (2 * eps), rel=1e-4)


class TestMSELoss:
    def test_value_and_gradient(self, rng):
        pred = rng.standard_normal((3, 4))
        target = rng.standard_normal((3, 4))
        mse = nn.MSELoss()
        assert mse(pred, target) == pytest.approx(np.mean((pred - target) ** 2))
        np.testing.assert_allclose(mse.backward(), 2 * (pred - target) / 12)

    def test_zero_at_match(self, rng):
        x = rng.standard_normal((2, 2))
        assert nn.MSELoss()(x, x.copy()) == 0.0


class TestGaussianKL:
    def test_standard_normal_is_zero(self):
        mu = np.zeros((5, 3))
        logvar = np.zeros((5, 3))
        assert nn.gaussian_kl(mu, logvar) == pytest.approx(0.0)

    def test_positive_elsewhere(self, rng):
        mu = rng.standard_normal((5, 3))
        logvar = rng.standard_normal((5, 3))
        assert nn.gaussian_kl(mu, logvar) > 0.0

    def test_known_value_mean_shift(self):
        # KL(N(m, 1) || N(0,1)) = m^2 / 2 per dimension
        mu = np.full((1, 2), 3.0)
        logvar = np.zeros((1, 2))
        assert nn.gaussian_kl(mu, logvar) == pytest.approx(9.0)

    def test_gradients_numeric(self, rng):
        mu = rng.standard_normal((3, 2))
        logvar = rng.standard_normal((3, 2)) * 0.5
        dmu, dlogvar = nn.gaussian_kl_grads(mu, logvar)
        eps = 1e-6
        for arr, grad in ((mu, dmu), (logvar, dlogvar)):
            orig = arr[1, 1]
            arr[1, 1] = orig + eps
            plus = nn.gaussian_kl(mu, logvar)
            arr[1, 1] = orig - eps
            minus = nn.gaussian_kl(mu, logvar)
            arr[1, 1] = orig
            assert grad[1, 1] == pytest.approx((plus - minus) / (2 * eps), rel=1e-5)


class TestCVAELoss:
    def test_composes_bce_and_kl(self, rng):
        recon = rng.random((2, 6)) * 0.8 + 0.1
        target = (rng.random((2, 6)) > 0.5).astype(float)
        mu = rng.standard_normal((2, 3))
        logvar = rng.standard_normal((2, 3)) * 0.1
        total = nn.CVAELoss()(recon, target, mu, logvar)
        bce = nn.BCELoss("sum_per_sample")(recon, target)
        kl = nn.gaussian_kl(mu, logvar)
        assert total == pytest.approx(bce + kl)

    def test_beta_scales_kl(self, rng):
        recon = rng.random((2, 6)) * 0.8 + 0.1
        target = (rng.random((2, 6)) > 0.5).astype(float)
        mu = rng.standard_normal((2, 3))
        logvar = np.zeros((2, 3))
        l1 = nn.CVAELoss(beta=1.0)(recon, target, mu, logvar)
        l2 = nn.CVAELoss(beta=2.0)(recon, target, mu, logvar)
        kl = nn.gaussian_kl(mu, logvar)
        assert l2 - l1 == pytest.approx(kl)

    def test_backward_returns_three_grads(self, rng):
        recon = rng.random((2, 6)) * 0.8 + 0.1
        target = (rng.random((2, 6)) > 0.5).astype(float)
        mu = rng.standard_normal((2, 3))
        logvar = np.zeros((2, 3))
        loss = nn.CVAELoss()
        loss(recon, target, mu, logvar)
        d_recon, d_mu, d_logvar = loss.backward()
        assert d_recon.shape == recon.shape
        assert d_mu.shape == mu.shape
        assert d_logvar.shape == logvar.shape
