"""Functional NN operations: im2col convolution, pooling, softmax.

The convolution is implemented as a single fused autograd node (forward via
im2col + batched matmul, backward via col2im strided slice-adds) rather than a
composition of Tensor primitives — the graphs stay small and the hot path is
pure BLAS.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


def _conv_indices(
    channels: int, height: int, width: int, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Build fancy-indexing arrays mapping a padded image to im2col columns.

    Returns ``(chan_idx, row_idx, col_idx, h_out, w_out)`` where indexing a
    padded input ``x[:, chan_idx, row_idx, col_idx]`` produces an array of
    shape ``(batch, channels * kernel * kernel, h_out * w_out)``.
    """
    h_out = (height + 2 * padding - kernel) // stride + 1
    w_out = (width + 2 * padding - kernel) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise ValueError(
            f"conv output would be empty: input {height}x{width}, kernel {kernel}, "
            f"stride {stride}, padding {padding}"
        )
    i0 = np.tile(np.repeat(np.arange(kernel), kernel), channels)
    i1 = stride * np.repeat(np.arange(h_out), w_out)
    j0 = np.tile(np.tile(np.arange(kernel), kernel), channels)
    j1 = stride * np.tile(np.arange(w_out), h_out)
    row_idx = i0.reshape(-1, 1) + i1.reshape(1, -1)
    col_idx = j0.reshape(-1, 1) + j1.reshape(1, -1)
    chan_idx = np.repeat(np.arange(channels), kernel * kernel).reshape(-1, 1)
    return chan_idx, row_idx, col_idx, h_out, w_out


def _pad_input(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _col2im(grad_cols: np.ndarray, grad: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Sum im2col columns ``(batch, channels * kernel², h_out * w_out)`` into
    ``grad``, a zeroed padded image the caller allocates (its dtype and
    memory layout stay the caller's), and return it.

    One strided slice-add per kernel offset in ascending ``(ki, kj)`` order:
    each padded pixel receives its contributions in the order ``np.add.at``
    over the :func:`_conv_indices` arrays applies them, so the bits match.
    """
    batch, channels, height, width = grad.shape
    h_out = (height - kernel) // stride + 1
    w_out = (width - kernel) // stride + 1
    cols = grad_cols.reshape(batch, channels, kernel, kernel, h_out, w_out)
    rows = slice(0, stride * (h_out - 1) + 1, stride)
    columns = slice(0, stride * (w_out - 1) + 1, stride)
    for ki in range(kernel):
        for kj in range(kernel):
            grad[:, :, ki:, kj:][:, :, rows, columns] += cols[:, :, ki, kj]
    return grad


def _unpad_grad(grad: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return grad
    return grad[:, :, padding:-padding, padding:-padding]


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-D convolution over NCHW input.

    ``weight`` has shape ``(c_out, c_in // groups, k, k)``.  ``groups ==
    c_in`` with ``c_out == c_in`` gives a depthwise convolution (the MBConv
    middle stage).
    """
    batch, c_in, height, width = x.shape
    c_out, c_in_g, kernel, kernel_w = weight.shape
    if kernel != kernel_w:
        raise ValueError("only square kernels are supported")
    if c_in % groups or c_out % groups:
        raise ValueError(f"channels ({c_in} -> {c_out}) not divisible by groups={groups}")
    if c_in_g != c_in // groups:
        raise ValueError(
            f"weight expects {c_in_g} input channels per group, input provides {c_in // groups}"
        )

    chan_idx, row_idx, col_idx, h_out, w_out = _conv_indices(
        c_in, height, width, kernel, stride, padding
    )
    x_padded = _pad_input(x.data, padding)
    cols = x_padded[:, chan_idx, row_idx, col_idx]  # (N, C*k*k, L)
    length = h_out * w_out
    cols_g = cols.reshape(batch, groups, c_in_g * kernel * kernel, length)
    weight_g = weight.data.reshape(groups, c_out // groups, c_in_g * kernel * kernel)

    out = np.einsum("gok,ngkl->ngol", weight_g, cols_g, optimize=True)
    out = out.reshape(batch, c_out, h_out, w_out)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g_cols = g.reshape(batch, groups, c_out // groups, length)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            grad_w = np.einsum("ngol,ngkl->gok", g_cols, cols_g, optimize=True)
            weight._accumulate(grad_w.reshape(weight.shape))
        if x.requires_grad:
            grad_cols = np.einsum("gok,ngol->ngkl", weight_g, g_cols, optimize=True)
            grad_padded = _col2im(grad_cols, np.zeros_like(x_padded), kernel, stride)
            x._accumulate(_unpad_grad(grad_padded, padding))

    return Tensor._make(out, parents, backward)


def _pool_cols(x: Tensor, kernel: int, stride: int, padding: int):
    batch, channels, height, width = x.shape
    chan_idx, row_idx, col_idx, h_out, w_out = _conv_indices(
        channels, height, width, kernel, stride, padding
    )
    x_padded = _pad_input(x.data, padding)
    cols = x_padded[:, chan_idx, row_idx, col_idx]
    cols = cols.reshape(batch, channels, kernel * kernel, h_out * w_out)
    return cols, x_padded.shape, h_out, w_out


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Max pooling over NCHW input."""
    stride = stride or kernel
    batch, channels = x.shape[:2]
    cols, padded_shape, h_out, w_out = _pool_cols(x, kernel, stride, padding)
    arg = cols.argmax(axis=2)
    out = np.take_along_axis(cols, arg[:, :, None, :], axis=2)[:, :, 0, :]
    out = out.reshape(batch, channels, h_out, w_out)

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        g_flat = g.reshape(batch, channels, h_out * w_out)
        grad_cols = np.zeros_like(cols)
        np.put_along_axis(grad_cols, arg[:, :, None, :], g_flat[:, :, None, :], axis=2)
        grad_padded = _col2im(
            grad_cols, np.zeros(padded_shape, dtype=g.dtype), kernel, stride
        )
        x._accumulate(_unpad_grad(grad_padded, padding))

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Average pooling over NCHW input."""
    stride = stride or kernel
    batch, channels = x.shape[:2]
    cols, padded_shape, h_out, w_out = _pool_cols(x, kernel, stride, padding)
    out = cols.mean(axis=2).reshape(batch, channels, h_out, w_out)

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        g_flat = g.reshape(batch, channels, 1, h_out * w_out) / (kernel * kernel)
        grad_cols = np.broadcast_to(g_flat, cols.shape)
        grad_padded = _col2im(
            grad_cols, np.zeros(padded_shape, dtype=g.dtype), kernel, stride
        )
        x._accumulate(_unpad_grad(grad_padded, padding))

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Spatial mean over NCHW input, returning shape ``(batch, channels)``."""
    return x.mean(axis=(2, 3))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shift = Tensor(x.data.max(axis=axis, keepdims=True))  # constant, grad-free
    shifted = x - shift
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return log_softmax(x, axis=axis).exp()


def softmax_np(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Plain-numpy softmax for inference-side code (controllers, metrics)."""
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def entropy_np(logits: np.ndarray, axis: int = -1, normalize: bool = True) -> np.ndarray:
    """Predictive entropy of softmax(logits); optionally normalised to [0, 1].

    This is the quantity thresholded by the entropy-based runtime controllers
    the paper cites for input-to-exit mapping.
    """
    probs = softmax_np(logits, axis=axis)
    ent = -(probs * np.log(np.clip(probs, 1e-12, None))).sum(axis=axis)
    if normalize:
        ent = ent / np.log(logits.shape[axis])
    return ent
