"""Byte-exact oracles for the strided-view kernels.

Each reference below is the earlier body of a kernel in ``repro.nn``,
kept here (and only here) as the definition of the bits the kernel must
produce: the ``x[:, k, i, j]`` gather for ``im2col``, the ``np.add.at``
scatter for ``col2im``, the reshaped ``max`` with ``mask.sum`` counts for
``MaxPool2d`` and the out-of-place ``Adam.step``. Equality is asserted on
``tobytes()`` and dtype, so a kernel that is merely close (a reordered
sum, a flipped signed zero) fails.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import nn
from repro.models import scaled_cvae
from repro.nn import functional as F


def _gather_indices(x_shape, fh, fw, padding, stride):
    _, channels, height, width = x_shape
    out_h = (height + 2 * padding - fh) // stride + 1
    out_w = (width + 2 * padding - fw) // stride + 1
    i0 = np.tile(np.repeat(np.arange(fh), fw), channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(fw), fh * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), fh * fw).reshape(-1, 1)
    return k, i, j


def reference_im2col(x, fh, fw, padding=0, stride=1):
    k, i, j = _gather_indices(x.shape, fh, fw, padding, stride)
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    cols = np.pad(x, pad, mode="constant")[:, k, i, j]
    return cols.transpose(1, 0, 2).reshape(fh * fw * x.shape[1], -1)


def reference_col2im(cols, x_shape, fh, fw, padding=0, stride=1):
    batch, channels, height, width = x_shape
    x_padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    k, i, j = _gather_indices(x_shape, fh, fw, padding, stride)
    cols_reshaped = cols.reshape(channels * fh * fw, batch, -1).transpose(1, 0, 2)
    np.add.at(x_padded, (slice(None), k, i, j), cols_reshaped)
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]


def reference_maxpool(xs, k, grad_out):
    """Forward output, mask and backward grad for a (K, N, C, H, W) stack."""
    clients, n, c, h, w = xs.shape
    reshaped = np.ascontiguousarray(xs).reshape(clients, n, c, h // k, k, w // k, k)
    out = reshaped.max(axis=(4, 6))
    mask = reshaped == out[:, :, :, :, None, :, None]
    counts = mask.sum(axis=(4, 6), keepdims=True)
    grad = (mask / counts) * grad_out[:, :, :, :, None, :, None]
    return out, mask, grad.reshape(xs.shape)


class ReferenceAdam:
    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = list(params)
        self.lr, (self.beta1, self.beta2) = lr, betas
        self.eps, self.weight_decay = eps, weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self):
        self._t += 1
        bias_c1 = 1.0 - self.beta1**self._t
        bias_c2 = 1.0 - self.beta2**self._t
        for idx, p in enumerate(self.params):
            grad = p.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * p.data
            m, v = self._m[idx], self._v[idx]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias_c1
            v_hat = v / bias_c2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def assert_same_bytes(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    case = f"{expected.dtype} {expected.shape}"
    assert actual.dtype == expected.dtype, case
    assert actual.shape == expected.shape, case
    assert actual.tobytes() == expected.tobytes(), case


# Each (kernel, padding, stride) case runs every batch size, channel
# count and dtype below on a non-square 7 × 9 input.
UNFOLD_GEOMETRIES = list(itertools.product((1, 2, 3, 5), (0, 1, 2), (1, 2, 3)))
UNFOLD_INPUTS = list(itertools.product((1, 3), (1, 4), (np.float32, np.float64)))


def _unfold_inputs(k, padding, stride):
    rng = np.random.default_rng([k, padding, stride])
    for n, c, dtype in UNFOLD_INPUTS:
        x = rng.standard_normal((n, c, 7, 9)).astype(dtype)
        x[rng.random(x.shape) < 0.1] = -0.0
        yield rng, x


@pytest.mark.parametrize("k,padding,stride", UNFOLD_GEOMETRIES)
def test_im2col_matches_gather(k, padding, stride):
    for _, x in _unfold_inputs(k, padding, stride):
        assert_same_bytes(
            F.im2col(x, k, k, padding=padding, stride=stride),
            reference_im2col(x, k, k, padding=padding, stride=stride),
        )


@pytest.mark.parametrize("k,padding,stride", UNFOLD_GEOMETRIES)
def test_col2im_matches_scatter_add(k, padding, stride):
    for rng, x in _unfold_inputs(k, padding, stride):
        shape = reference_im2col(x, k, k, padding=padding, stride=stride).shape
        # Mixed magnitudes make the sum order visible in the last bits.
        cols = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
        cols = cols.astype(x.dtype)
        assert_same_bytes(
            F.col2im(cols, x.shape, k, k, padding=padding, stride=stride),
            reference_col2im(cols, x.shape, k, k, padding=padding, stride=stride),
        )


def test_unfold_rectangular_kernel():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 6, 8))
    cols = F.im2col(x, 2, 3, padding=1, stride=2)
    assert_same_bytes(cols, reference_im2col(x, 2, 3, padding=1, stride=2))
    y = rng.standard_normal(cols.shape)
    assert_same_bytes(
        F.col2im(y, x.shape, 2, 3, padding=1, stride=2),
        reference_col2im(y, x.shape, 2, 3, padding=1, stride=2),
    )


def _pool_input(clients, n, c, k, dtype, zeros_only):
    rng = np.random.default_rng([clients, n, c, k, int(zeros_only)])
    x = nn.functional.relu(rng.standard_normal((clients, n, c, 4 * k, 2 * k)))
    if zeros_only:
        # Windows that are all ±0.0: every element ties, so the output's
        # sign bit shows which element the fold kept.
        x = np.where(rng.random(x.shape) < 0.5, -0.0, 0.0)
    else:
        x[rng.random(x.shape) < 0.2] = -0.0
    grad_out = rng.standard_normal((clients, n, c, 4, 2))
    return x.astype(dtype), grad_out.astype(dtype)


@pytest.mark.parametrize("clients", (1, 3))
@pytest.mark.parametrize("kernel", (2, 3))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("zeros_only", (False, True))
def test_maxpool_matches_reshaped_max(clients, kernel, dtype, zeros_only):
    x, grad_out = _pool_input(clients, 2, 3, kernel, dtype, zeros_only)
    out_ref, mask_ref, grad_ref = reference_maxpool(x, kernel, grad_out)
    pool = nn.MaxPool2d(kernel)
    if clients == 1:
        out, dx = pool(x[0])[None], pool.backward(grad_out[0])[None]
    else:
        pool.set_client_axis(clients)
        out, dx = pool(x), pool.backward(grad_out)
    assert_same_bytes(out, out_ref)
    assert_same_bytes(pool._cache[1], mask_ref)
    assert_same_bytes(dx, grad_ref)


@pytest.mark.parametrize("weight_decay", (0.0, 1e-2))
def test_adam_matches_out_of_place_step(weight_decay):
    params = scaled_cvae(rng=np.random.default_rng(1)).parameters()
    ref_params = scaled_cvae(rng=np.random.default_rng(1)).parameters()
    opt = nn.Adam(params, lr=1e-3, weight_decay=weight_decay)
    ref_opt = ReferenceAdam(ref_params, lr=1e-3, weight_decay=weight_decay)
    rng = np.random.default_rng(2)
    # A bank of gradients, some entries exactly 0, replayed at a fresh
    # scale each step so the steps span twelve orders of magnitude.
    bank = [[rng.standard_normal(p.shape) * (rng.random(p.shape) >= 0.05) for p in params]
            for _ in range(4)]
    for step in range(200):
        scale = 10.0 ** rng.integers(-9, 3)
        for p, q, g in zip(params, ref_params, bank[step % 4]):
            np.multiply(g, scale, out=p.grad)
            q.grad[...] = p.grad
        opt.step()
        ref_opt.step()
    for p, q in zip(params, ref_params):
        assert_same_bytes(p.data, q.data)
    for mine, ref in ((opt._m, ref_opt._m), (opt._v, ref_opt._v)):
        for a, b in zip(mine, ref):
            assert_same_bytes(a, b)
