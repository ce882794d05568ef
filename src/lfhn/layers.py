"""Forward and backward math for every layer kind in the network.

Each backward function is the exact adjoint of its forward given the gradient
of a scalar loss with respect to the forward output. Nothing here mutates its
inputs, so layer calls are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .tensor import DTYPE


@dataclass
class ConvParams:
    """Kernel (kh, kw, cin, cout), per-output-channel bias, stride and zero pad."""

    kernel: np.ndarray
    bias: np.ndarray
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        self.kernel = np.asarray(self.kernel, dtype=DTYPE)
        self.bias = np.asarray(self.bias, dtype=DTYPE)
        if self.kernel.ndim != 4:
            raise ValueError(f"kernel must be rank 4, got shape {self.kernel.shape}")
        if self.bias.shape != (self.kernel.shape[3],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match kernel "
                f"out-channels {self.kernel.shape[3]}"
            )
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.pad < 0:
            raise ValueError("pad must be >= 0")


@dataclass(frozen=True)
class LrnParams:
    """Cross-channel response normalization constants.

    size is the channel span of the local region, k the additive constant,
    alpha the energy scale and beta the exponent. k > 0 and beta > 0 keep the
    denominator strictly positive and differentiable.
    """

    size: int = 5
    k: float = 2.0
    alpha: float = 1e-4
    beta: float = 0.75

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.k <= 0:
            raise ValueError("k must be > 0")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")


@dataclass
class PoolIndexMap:
    """Winning input position per pooled output element.

    indices holds flat spatial offsets (row * width + col) into the input of
    the matching forward call; ties were broken to the lowest offset.
    """

    indices: np.ndarray
    input_shape: tuple


def _pointwise(p: ConvParams) -> bool:
    """A 1x1 kernel at stride 1 and pad 0 reads every pixel exactly once."""
    return p.kernel.shape[:2] == (1, 1) and p.stride == 1 and p.pad == 0


def _rows(x, p: ConvParams, ho, wo) -> np.ndarray:
    """The input as one matrix row per output position, (n*ho*wo, kh*kw*cin).

    A pointwise kernel needs no window gather: the rows are a reshape of x.
    """
    n, _, _, cin = x.shape
    kh, kw = p.kernel.shape[:2]
    if _pointwise(p):
        return x.reshape(n * ho * wo, cin)
    return tensor.im2col(x, kh, kw, p.stride, p.pad).reshape(n * ho * wo, kh * kw * cin)


def conv_forward(x, p: ConvParams):
    """Convolve (n, h, w, cin) with p.kernel and add the bias.

    Returns (out, rows): rows is the lowered input that conv_backward takes,
    so the windows are gathered once per forward/backward pair.
    """
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 4:
        raise ValueError(f"conv input must be rank 4, got shape {x.shape}")
    n, h, w, cin = x.shape
    kh, kw, kcin, cout = p.kernel.shape
    if cin != kcin:
        raise ValueError(f"input has {cin} channels but kernel expects {kcin}")
    ho = tensor.conv_extent(h, kh, p.stride, p.pad)
    wo = tensor.conv_extent(w, kw, p.stride, p.pad)
    rows = _rows(x, p, ho, wo)
    out = rows @ p.kernel.reshape(-1, cout)
    out += p.bias
    return out.reshape(n, ho, wo, cout), rows


def conv_backward(rows, input_shape, p: ConvParams, grad_out, need_input_grad=True):
    """Adjoint of conv_forward, given the rows it returned for an input of input_shape.

    Returns (grad_input, grad_kernel, grad_bias); grad_input is None when
    need_input_grad is False (the root layer of a network never needs it).
    """
    grad_out = np.asarray(grad_out, dtype=DTYPE)
    n, h, w, _ = input_shape
    kh, kw, cin, cout = p.kernel.shape
    ho = tensor.conv_extent(h, kh, p.stride, p.pad)
    wo = tensor.conv_extent(w, kw, p.stride, p.pad)
    if grad_out.shape != (n, ho, wo, cout):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward output "
            f"{(n, ho, wo, cout)}"
        )
    if rows.shape != (n * ho * wo, kh * kw * cin):
        raise ValueError(f"rows shape {rows.shape} does not match input {tuple(input_shape)} "
                         "and kernel; stale rows?")
    g = grad_out.reshape(n * ho * wo, cout)
    grad_kernel = (rows.T @ g).reshape(p.kernel.shape)
    grad_bias = grad_out.sum(axis=(0, 1, 2))
    grad_input = None
    if need_input_grad:
        gcols = g @ p.kernel.reshape(-1, cout).T
        if _pointwise(p):
            grad_input = gcols.reshape(input_shape)
        else:
            grad_input = tensor.col2im(gcols, input_shape, kh, kw, p.stride, p.pad)
    return grad_input, grad_kernel, grad_bias


def relu(x) -> np.ndarray:
    """Ramp activation max(0, x)."""
    return np.maximum(np.asarray(x, dtype=DTYPE), 0.0)


def relu_backward(x, grad_out) -> np.ndarray:
    """Pass gradient where x > 0; the subgradient at exactly 0 is 0."""
    x = np.asarray(x, dtype=DTYPE)
    return np.asarray(grad_out, dtype=DTYPE) * (x > 0.0)


def maxpool_forward(x, window=3, stride=2):
    """Channel-wise max over spatial windows; also returns the winner map."""
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 4:
        raise ValueError(f"pool input must be rank 4, got shape {x.shape}")
    n, h, w, c = x.shape
    ho = tensor.conv_extent(h, window, stride, 0)
    wo = tensor.conv_extent(w, window, stride, 0)
    # one strided view per window offset, keyed by its flat offset ky*w + kx
    views = [(ky * w + kx, x[:, ky:ky + (ho - 1) * stride + 1:stride,
                             kx:kx + (wo - 1) * stride + 1:stride])
             for ky in range(window) for kx in range(window)]
    out = views[0][1].copy()
    for _, view in views[1:]:
        np.maximum(out, view, out=out)
    # scanning in reverse leaves the lowest flat offset that holds the max; a
    # window whose max is nan matches nothing and keeps the last offset
    indices = np.full(out.shape, views[-1][0], dtype=np.intp)
    for offset, view in reversed(views[:-1]):
        np.copyto(indices, offset, where=view == out)
    indices += (np.arange(ho)[:, None] * (stride * w) + np.arange(wo) * stride)[:, :, None]
    return out, PoolIndexMap(indices, (n, h, w, c))


def maxpool_backward(index_map: PoolIndexMap, grad_out) -> np.ndarray:
    """Route gradient to the winning positions, accumulating across overlaps."""
    grad_out = np.asarray(grad_out, dtype=DTYPE)
    if grad_out.shape != index_map.indices.shape:
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match index map "
            f"{index_map.indices.shape}; stale index map?"
        )
    n, h, w, c = index_map.input_shape
    idx = index_map.indices.reshape(n, -1, c)
    gidx = (np.arange(n)[:, None, None] * (h * w) + idx) * c + np.arange(c)[None, None, :]
    acc = np.bincount(gidx.ravel(), weights=grad_out.reshape(n, -1, c).ravel(),
                      minlength=n * h * w * c)
    return acc.reshape(n, h, w, c)


def _window_sum_channels(v, half):
    """Sum over the channel window [c - half, c + half] clipped to the tensor."""
    c = v.shape[-1]
    cs = np.concatenate([np.zeros(v.shape[:-1] + (1,), dtype=DTYPE),
                         np.cumsum(v, axis=-1)], axis=-1)
    lo = np.maximum(np.arange(c) - half, 0)
    hi = np.minimum(np.arange(c) + half, c - 1)
    return cs[..., hi + 1] - cs[..., lo]


def lrn_forward(x, p: LrnParams) -> np.ndarray:
    """Divide each value by (k + (alpha/size) * local channel energy) ** beta.

    The local region spans nearby channels only, centered on each channel and
    truncated at the tensor edges.
    """
    x = np.asarray(x, dtype=DTYPE)
    ssum = _window_sum_channels(x * x, p.size // 2)
    return x / (p.k + (p.alpha / p.size) * ssum) ** p.beta


def lrn_backward(x, p: LrnParams, grad_out) -> np.ndarray:
    """Exact derivative of lrn_forward including the shared-denominator terms."""
    x = np.asarray(x, dtype=DTYPE)
    grad_out = np.asarray(grad_out, dtype=DTYPE)
    if grad_out.shape != x.shape:
        raise ValueError(f"grad_out shape {grad_out.shape} does not match input {x.shape}")
    half = p.size // 2
    s = p.k + (p.alpha / p.size) * _window_sum_channels(x * x, half)
    # out_c = x_c * s_c**-beta, and channel j appears in the window of c iff
    # c appears in the window of j, so the cross terms fold into one window sum
    t = grad_out * x * s ** (-p.beta - 1.0)
    cross = _window_sum_channels(t, half)
    return grad_out * s ** (-p.beta) - (2.0 * p.alpha * p.beta / p.size) * x * cross


def concat_channels(inputs) -> np.ndarray:
    """Concatenate along the channel axis; all inputs must agree spatially."""
    if not inputs:
        raise ValueError("concat_channels needs at least one input")
    arrays = [np.asarray(a, dtype=DTYPE) for a in inputs]
    lead = arrays[0].shape[:-1]
    for a in arrays[1:]:
        if a.shape[:-1] != lead:
            raise ValueError(
                f"concat spatial mismatch: {a.shape[:-1]} versus {lead}"
            )
    return np.concatenate(arrays, axis=-1)


def split_channels(grad, extents):
    """Exact inverse of concat_channels for a channel-extent list."""
    grad = np.asarray(grad, dtype=DTYPE)
    if sum(extents) != grad.shape[-1]:
        raise ValueError(
            f"channel extents {list(extents)} do not sum to {grad.shape[-1]}"
        )
    cuts = np.cumsum(extents)[:-1]
    return [np.ascontiguousarray(part) for part in np.split(grad, cuts, axis=-1)]


def fc_forward(x, weight, bias) -> np.ndarray:
    """Affine map out[j] = sum_i x[i] * weight[i, j] + bias[j], batched over rows."""
    out = np.asarray(x, dtype=DTYPE) @ np.asarray(weight, dtype=DTYPE)
    out += np.asarray(bias, dtype=DTYPE)
    return out


def fc_backward(x, weight, grad_out):
    """Adjoint of fc_forward: (grad_input, grad_weight, grad_bias)."""
    x = np.asarray(x, dtype=DTYPE)
    grad_out = np.asarray(grad_out, dtype=DTYPE)
    grad_weight = x.T @ grad_out
    grad_bias = grad_out.sum(axis=0)
    grad_input = grad_out @ np.asarray(weight, dtype=DTYPE).T
    return grad_input, grad_weight, grad_bias


def softmax_xent(logits, labels):
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits.

    logits is (n, k); labels is an int vector of length n. The returned
    gradient is (softmax - onehot) / n, matching the batch-mean loss.
    """
    logits = np.asarray(logits, dtype=DTYPE)
    if logits.ndim == 1:
        logits = logits[None]
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0, {k})")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    rows = np.arange(n)
    # log-sum-exp stays finite where the label's softmax entry underflows to 0
    loss = float((np.log(total[:, 0]) - shifted[rows, labels]).mean())
    grad = e / total
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad
