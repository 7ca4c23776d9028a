"""Low-level vectorized tensor operations used by the layer implementations.

Everything in this module is a pure function on :class:`numpy.ndarray`
inputs. Layers in :mod:`repro.nn.layers` compose these primitives and add
parameter/state management on top.

The convolution primitives follow the classic im2col/col2im scheme: a
(batch, channels, H, W) tensor is unfolded into a matrix of receptive-field
columns so that the convolution itself becomes a single BLAS ``matmul`` —
per the HPC guidance, there are no per-sample or per-pixel Python loops
anywhere in the forward or backward passes. Both are strided views of the
image: ``im2col`` copies once out of a window view, and ``col2im`` loops
only over the kh×kw kernel offsets, one whole-tensor slice-add each.

Every public function carries an :func:`~repro.analysis.contracts.array_contract`
shape/dtype precondition. The decorators are no-ops (the raw functions,
zero wrapper overhead) unless ``REPRO_CHECK_CONTRACTS=1`` is set, in which
case a malformed tensor raises immediately with its offending shape
instead of propagating NaNs through a federation.
"""

from __future__ import annotations

import numpy as np

from ..analysis.contracts import array_contract, client_batched

__all__ = [
    "im2col",
    "col2im",
    "softmax",
    "log_softmax",
    "sigmoid",
    "one_hot",
    "relu",
]


def _out_size(
    x_shape: tuple[int, int, int, int],
    field_height: int,
    field_width: int,
    padding: int,
    stride: int,
) -> tuple[int, int]:
    """``(out_h, out_w)`` of an unfold; raises if either is non-positive."""
    _, channels, height, width = x_shape
    out_height = (height + 2 * padding - field_height) // stride + 1
    out_width = (width + 2 * padding - field_width) // stride + 1
    if out_height <= 0 or out_width <= 0:
        raise ValueError(
            f"unfold has a non-positive output size for input "
            f"(N, {channels}, {height}, {width}) with kernel "
            f"({field_height}, {field_width}), padding {padding}, "
            f"stride {stride}"
        )
    return out_height, out_width


@array_contract(x={"ndim": 4, "dtype": "numeric"})
def im2col(
    x: np.ndarray,
    field_height: int,
    field_width: int,
    padding: int = 0,
    stride: int = 1,
) -> np.ndarray:
    """Unfold ``x`` of shape (N, C, H, W) into columns.

    Returns an array of shape ``(C*fh*fw, N*out_h*out_w)`` whose columns are
    flattened receptive fields, ready to be multiplied by a flattened
    weight matrix.
    """
    _out_size(x.shape, field_height, field_width, padding, stride)
    if padding > 0:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
    # (N, C, H', W', fh, fw) view of every stride-1 window, thinned to the
    # strided ones; no data moves until the reshape below.
    windows = np.lib.stride_tricks.sliding_window_view(
        x, (field_height, field_width), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    # Row index = (c, ki, kj) and column index = n * L + l: the conv layer's
    # output reshape relies on this exact layout. The reshape is the one copy.
    return windows.transpose(1, 4, 5, 0, 2, 3).reshape(
        x.shape[1] * field_height * field_width, -1
    )


@array_contract(cols={"ndim": 2, "dtype": "numeric"})
def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    field_height: int,
    field_width: int,
    padding: int = 0,
    stride: int = 1,
) -> np.ndarray:
    """Fold columns back into an image tensor, accumulating overlaps.

    This is the adjoint of :func:`im2col` and is used to propagate gradients
    through the unfold. ``cols`` must have exactly the shape
    ``im2col`` produces for ``x_shape``, ``(C*fh*fw, N*out_h*out_w)``.

    The fold is one strided slice-add per kernel offset (ki, kj), in
    row-major order. A padded pixel receives at most one term per offset,
    so it sums its terms in (ki, kj) order starting from zero: the same
    additions, in the same order, as an unbuffered scatter-add over the
    rows of ``cols``, hence the same bits.
    """
    batch, channels, height, width = x_shape
    out_height, out_width = _out_size(x_shape, field_height, field_width, padding, stride)
    expected = (channels * field_height * field_width, batch * out_height * out_width)
    if cols.shape != expected:
        raise ValueError(
            f"col2im expects columns of shape {expected} for input {tuple(x_shape)} "
            f"with kernel ({field_height}, {field_width}), padding {padding}, "
            f"stride {stride}; got {cols.shape}"
        )
    h_padded, w_padded = height + 2 * padding, width + 2 * padding
    x_padded = np.zeros((batch, channels, h_padded, w_padded), dtype=cols.dtype)
    # (fh, fw, N, C, out_h, out_w) view: one (N, C, out_h, out_w) term per offset.
    terms = cols.reshape(
        channels, field_height, field_width, batch, out_height, out_width
    ).transpose(1, 2, 3, 0, 4, 5)
    h_span, w_span = stride * out_height, stride * out_width
    for ki, kj in np.ndindex(field_height, field_width):
        x_padded[:, :, ki:ki + h_span:stride, kj:kj + w_span:stride] += terms[ki, kj]
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]


@client_batched
@array_contract(x={"dtype": "numeric"})
def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise rectified linear unit."""
    return np.maximum(x, 0.0)


@client_batched
@array_contract(x={"dtype": "floating"})
def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable elementwise logistic sigmoid.

    Computed in the input's own dtype: the seed allocated a float64
    scratch array and round-tripped through it even for narrower inputs,
    doubling the memory traffic of every CVAE reconstruction.
    """
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@client_batched
@array_contract(x={"min_ndim": 1, "dtype": "floating"})
def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


@client_batched
@array_contract(x={"min_ndim": 1, "dtype": "floating"})
def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


@client_batched
@array_contract(labels={"dtype": "integer"})
def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    """Encode integer labels as one-hot vectors along a new trailing axis.

    (N,) labels become an (N, num_classes) matrix; client-batched (K, N)
    labels become a (K, N, num_classes) stack whose slice j equals the
    unstacked encoding of ``labels[j]``.
    """
    labels = np.asarray(labels)
    if labels.ndim not in (1, 2):
        raise ValueError(f"labels must be 1-D or (K, N), got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): min={labels.min()}, max={labels.max()}"
        )
    out = np.zeros(labels.shape + (num_classes,), dtype=dtype)
    np.put_along_axis(out, labels[..., None], 1.0, axis=-1)
    return out
