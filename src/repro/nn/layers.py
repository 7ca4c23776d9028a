"""Trainable and structural layers: Linear, Conv2d, MaxPool2d, Flatten, Dropout.

Every layer implements the ``forward``/``backward`` contract of
:class:`repro.nn.module.Module`. Forward passes cache the minimum needed for
the backward pass; backward passes accumulate parameter gradients (``+=``)
so that gradient accumulation across micro-batches works naturally.

Linear, Conv2d and MaxPool2d each have one body, written for a leading
client axis: (K, N, ...) inputs against (K, ...) parameters while
``client_axis`` is set. An unstacked layer runs as the K = 1 stack
(``x[None]`` in, ``out[0]`` out).
"""

from __future__ import annotations

import numpy as np

from ..analysis.contracts import client_batched
from . import functional as F
from . import init
from .module import Module, Parameter

__all__ = ["Linear", "Conv2d", "MaxPool2d", "Flatten", "Dropout"]


def _lift(layer: Module, array: np.ndarray) -> np.ndarray:
    """``array`` with a leading client axis (a K = 1 view when unstacked)."""
    return array if layer.client_axis is not None else array[None]


def _drop(layer: Module, array: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_lift` for a layer's result."""
    return array if layer.client_axis is not None else array[0]


def _layout_error(layer: Module, dims: str, x: np.ndarray) -> ValueError:
    """The shape error for ``x``, naming the input layout ``layer`` expects."""
    name = type(layer).__name__
    if layer.client_axis is not None:
        name, dims = f"client-batched {name}", f"K, {dims}"
    return ValueError(f"{name} expects ({dims}), got shape {x.shape}")


class Linear(Module):
    """Fully connected layer ``y = x @ W.T + b``.

    Parameters are stored in (out_features, in_features) layout to match
    PyTorch conventions, which makes the paper's parameter-count tables
    directly checkable. ``np.matmul`` runs one BLAS GEMM per client slice,
    so slice j is bit-identical to the 2-D ``x[j] @ w[j].T``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.has_bias = bias
        if bias:
            self.bias = Parameter(init.uniform_fan_in((out_features,), in_features, rng))
        self._cache_input: np.ndarray | None = None

    @client_batched
    def forward(self, x: np.ndarray) -> np.ndarray:
        xs = _lift(self, x)
        if xs.ndim != 3 or xs.shape[-1] != self.in_features:
            raise _layout_error(self, f"N, {self.in_features}", x)
        self._cache_input = xs
        out = np.matmul(xs, _lift(self, self.weight.data).transpose(0, 2, 1))
        if self.has_bias:
            out += _lift(self, self.bias.data)[:, None, :]
        return _drop(self, out)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._cache_input
        if x is None:
            raise RuntimeError("backward called before forward")
        grad = _lift(self, grad_output)
        weight_grad = _lift(self, self.weight.grad)
        weight_grad += np.matmul(grad.transpose(0, 2, 1), x)
        if self.has_bias:
            bias_grad = _lift(self, self.bias.grad)
            bias_grad += grad.sum(axis=1)
        return _drop(self, np.matmul(grad, _lift(self, self.weight.data)))


class Conv2d(Module):
    """2-D convolution over (N, C, H, W) tensors via im2col + GEMM.

    The client axis is folded into the im2col batch and one stacked GEMM
    applies each client's kernel to exactly its own columns: im2col's
    column index is m*L + l, so splitting the m = j*N + i axis recovers
    client j's column matrix bit-for-bit.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        self.has_bias = bias
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            self.bias = Parameter(init.uniform_fan_in((out_channels,), fan_in, rng))
        self._cache: tuple | None = None

    @client_batched
    def forward(self, x: np.ndarray) -> np.ndarray:
        xs = _lift(self, x)
        if xs.ndim != 5 or xs.shape[2] != self.in_channels:
            raise _layout_error(self, f"N, {self.in_channels}, H, W", x)
        clients, n, _, h, w = xs.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h = (h + 2 * p - k) // s + 1
        out_w = (w + 2 * p - k) // s + 1
        cols = F.im2col(
            np.ascontiguousarray(xs).reshape(clients * n, self.in_channels, h, w),
            k, k, padding=p, stride=s,
        )  # (C*k*k, K*N*out_h*out_w)
        ckk = cols.shape[0]
        cols_b = cols.reshape(ckk, clients, n * out_h * out_w).transpose(1, 0, 2)
        w_flat = _lift(self, self.weight.data).reshape(clients, self.out_channels, -1)
        out = np.matmul(w_flat, cols_b)  # (K, out_c, N*out_h*out_w)
        out = out.reshape(clients, self.out_channels, n, out_h, out_w)
        out = out.transpose(0, 2, 1, 3, 4)
        if self.has_bias:
            out += _lift(self, self.bias.data)[:, None, :, None, None]
        self._cache = (xs.shape, cols)
        return _drop(self, np.ascontiguousarray(out))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, cols = self._cache
        k, s, p = self.kernel_size, self.stride, self.padding
        clients, n = x_shape[0], x_shape[1]
        grad_out = _lift(self, grad_output)
        grad = grad_out.transpose(0, 2, 1, 3, 4)
        grad = grad.reshape(clients, self.out_channels, -1)  # (K, out_c, N*L)
        ckk = cols.shape[0]
        cols_b = cols.reshape(ckk, clients, -1).transpose(1, 0, 2)
        weight_grad = _lift(self, self.weight.grad)
        weight_grad += np.matmul(grad, cols_b.transpose(0, 2, 1)).reshape(weight_grad.shape)
        if self.has_bias:
            bias_grad = _lift(self, self.bias.grad)
            bias_grad += grad_out.sum(axis=(1, 3, 4))
        w_flat = _lift(self, self.weight.data).reshape(clients, self.out_channels, -1)
        dcols_b = np.matmul(w_flat.transpose(0, 2, 1), grad)  # (K, C*k*k, N*L)
        dcols = np.ascontiguousarray(dcols_b.transpose(1, 0, 2)).reshape(ckk, -1)
        dx = F.col2im(dcols, (clients * n,) + x_shape[2:], k, k, padding=p, stride=s)
        return _drop(self, dx.reshape(x_shape))


class MaxPool2d(Module):
    """Non-overlapping max pooling with ``kernel_size == stride``.

    Each of the k×k window offsets is one strided view of the input, so
    the pool is k×k whole-tensor ``np.maximum`` passes over views (the
    fastest pure-NumPy route when windows do not overlap, which is all the
    paper's architecture needs: 2×2/2). Max and mask are exact per client
    slice.
    """

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self._cache: tuple | None = None

    @client_batched
    def forward(self, x: np.ndarray) -> np.ndarray:
        xs = _lift(self, x)
        if xs.ndim != 5:
            raise _layout_error(self, "N, C, H, W", x)
        clients, n, c, h, w = xs.shape
        k = self.kernel_size
        if h % k or w % k:
            raise ValueError(
                f"MaxPool2d({k}) requires spatial dims divisible by {k}, got {h}x{w}"
            )
        reshaped = np.ascontiguousarray(xs).reshape(clients, n, c, h // k, k, w // k, k)
        # Fold the window offsets in row-major order. On a tie np.maximum
        # returns its second argument, so a ±0.0 window keeps the same
        # signed zero as a max reduction over the window would.
        out = reshaped[:, :, :, :, 0, :, 0].copy()
        for a, b in list(np.ndindex(k, k))[1:]:
            np.maximum(out, reshaped[:, :, :, :, a, :, b], out=out)
        # Mask of argmax positions for routing gradients. Ties route the
        # gradient to every maximal element, matching subgradient semantics.
        mask = reshaped == out[:, :, :, :, None, :, None]
        self._cache = (xs.shape, mask)
        return _drop(self, out)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, mask = self._cache
        grad_out = _lift(self, grad_output)
        k = self.kernel_size
        # Integer counts, so mask / counts promotes as a mask.sum would.
        counts = mask[:, :, :, :, 0, :, 0].astype(np.int_)
        for a, b in list(np.ndindex(k, k))[1:]:
            counts += mask[:, :, :, :, a, :, b]
        grad = (mask / counts[:, :, :, :, None, :, None]) * grad_out[:, :, :, :, None, :, None]
        return _drop(self, grad.reshape(x_shape))


class Flatten(Module):
    """Flatten all non-batch dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    @client_batched
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        if self.client_axis is not None:
            # (K, N, ...) -> (K, N, features): only the per-sample dims fold.
            return np.ascontiguousarray(x).reshape(x.shape[0], x.shape[1], -1)
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._shape)


class Dropout(Module):
    """Inverted dropout. Identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng()
        # Client-batched mode: one generator per stacked client. A single
        # shared stream would entangle the clients' mask draws (client j's
        # mask would depend on how many clients precede it in the stack),
        # breaking bit-equivalence with the per-client loop.
        self.client_rngs: list[np.random.Generator] | None = None
        self._mask: np.ndarray | None = None

    @client_batched
    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        if self.client_axis is not None:
            rngs = self.client_rngs
            if rngs is None or len(rngs) != x.shape[0]:
                raise RuntimeError(
                    "client-batched Dropout requires one RNG stream per client: "
                    f"got {0 if rngs is None else len(rngs)} streams for "
                    f"{x.shape[0]} stacked clients (set `client_rngs`)"
                )
            # Each client's mask comes from its own stream with the same
            # per-client shape the loop engine draws — bit-identical masks.
            noise = np.stack([rng.random(x.shape[1:]) for rng in rngs])
            self._mask = (noise < keep) / keep
        else:
            self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask
