"""Forward and backward math for every layer kind in the network.

Each backward function is the exact adjoint of its forward given the gradient
of a scalar loss with respect to the forward output. Nothing here mutates its
inputs, except relu when it is handed its input as out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .tensor import DTYPE


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
        if not 0 < self.k < np.inf:
            raise ValueError(f"k must be finite and > 0, got {self.k}")
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0 < self.beta < np.inf:
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")


def conv_forward(x, kernel, bias, stride=1, keep_rows=True):
    """Convolve (n, h, w, cin) with a (kh, kw, cin, cout) kernel and add the bias.

    Returns (out, rows): rows is the lowered input that conv_backward takes,
    so the windows are gathered once per forward/backward pair. A 1x1 kernel
    at stride 1 reads every pixel once, so its rows are a reshape of x.

    With keep_rows=False rows is None, and a kernel that needs lowering is
    lowered and multiplied one image at a time, so at most one image's rows
    exist (unless an image has one window or cout is 1). out has the same
    bits either way.
    """
    x = np.asarray(x, dtype=DTYPE)
    kernel = np.asarray(kernel, dtype=DTYPE)
    bias = np.asarray(bias, dtype=DTYPE)
    if x.ndim != 4 or kernel.ndim != 4:
        raise ValueError(f"conv input and kernel must be rank 4, got shapes "
                         f"{x.shape} and {kernel.shape}")
    n, h, w, cin = x.shape
    kh, kw, kcin, cout = kernel.shape
    if cin != kcin:
        raise ValueError(f"input has {cin} channels but kernel expects {kcin}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if bias.shape != (cout,):
        raise ValueError(f"bias shape {bias.shape} does not match kernel out-channels {cout}")
    ho = tensor.conv_extent(h, kh, stride)
    wo = tensor.conv_extent(w, kw, stride)
    weights = kernel.reshape(-1, cout)
    rows = None
    if (kh, kw, stride) == (1, 1, 1):
        rows = x.reshape(n * ho * wo, cin)
    elif keep_rows or ho * wo == 1 or cout == 1:
        # a one-row or one-column product is a matrix-vector one, whose sums
        # split differently for one image than for the batch: keep it batched
        rows = tensor.im2col(x, kh, kw, stride).reshape(n * ho * wo, kh * kw * cin)
    if rows is None:
        out = np.empty((n, ho * wo, cout), dtype=DTYPE)
        for i in range(n):
            np.matmul(tensor.im2col(x[i:i + 1], kh, kw, stride)[0], weights, out=out[i])
    else:
        out = rows @ weights
    out += bias
    return out.reshape(n, ho, wo, cout), rows if keep_rows else None


def conv_backward(rows, input_shape, kernel, grad_out, stride=1, need_input_grad=True):
    """Adjoint of conv_forward, given the rows it returned for an input of input_shape.

    Returns (grad_input, grad_kernel, grad_bias); grad_input is None when
    need_input_grad is False (the root layer of a network never needs it).
    """
    grad_out = np.asarray(grad_out, dtype=DTYPE)
    kernel = np.asarray(kernel, dtype=DTYPE)
    n, h, w, _ = input_shape
    kh, kw, cin, cout = kernel.shape
    ho = tensor.conv_extent(h, kh, stride)
    wo = tensor.conv_extent(w, kw, stride)
    if grad_out.shape != (n, ho, wo, cout):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward output "
            f"{(n, ho, wo, cout)}"
        )
    if rows.shape != (n * ho * wo, kh * kw * cin):
        raise ValueError(f"rows shape {rows.shape} does not match input {tuple(input_shape)} "
                         "and kernel; stale rows?")
    g = grad_out.reshape(n * ho * wo, cout)
    grad_kernel = (rows.T @ g).reshape(kernel.shape)
    grad_bias = grad_out.sum(axis=(0, 1, 2))
    grad_input = None
    if need_input_grad:
        gcols = g @ kernel.reshape(-1, cout).T
        if (kh, kw, stride) == (1, 1, 1):
            grad_input = gcols.reshape(input_shape)
        else:
            grad_input = tensor.col2im(gcols, input_shape, kh, kw, stride)
    return grad_input, grad_kernel, grad_bias


def relu(x, out=None) -> np.ndarray:
    """Ramp activation max(0, x), written into out when given (out=x rectifies in place).

    relu(x) > 0 exactly where x > 0 (nan compares false on both sides), so
    relu_backward may be handed the output in place of the input.
    """
    return np.maximum(np.asarray(x, dtype=DTYPE), 0.0, out=out)


def relu_backward(x, grad_out) -> np.ndarray:
    """Pass gradient where x > 0; the subgradient at exactly 0 is 0."""
    x = np.asarray(x, dtype=DTYPE)
    return np.asarray(grad_out, dtype=DTYPE) * (x > 0.0)


def _pool_views(x, window, stride, ho, wo):
    """One strided view of x per window offset, keyed by its flat offset ky*w + kx."""
    w = x.shape[2]
    return [(ky * w + kx, x[:, ky:ky + (ho - 1) * stride + 1:stride,
                            kx:kx + (wo - 1) * stride + 1:stride])
            for ky in range(window) for kx in range(window)]


def maxpool_forward(x, window=3, stride=2) -> np.ndarray:
    """Channel-wise max over spatial windows; maxpool_backward finds the winners."""
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 4:
        raise ValueError(f"pool input must be rank 4, got shape {x.shape}")
    _, h, w, _ = x.shape
    ho = tensor.conv_extent(h, window, stride)
    wo = tensor.conv_extent(w, window, stride)
    views = _pool_views(x, window, stride, ho, wo)
    out = views[0][1].copy()
    for _, view in views[1:]:
        np.maximum(out, view, out=out)
    return out


def pool_winners(x, out, window, stride) -> np.ndarray:
    """Flat spatial offset (row * width + col) into x of each pooled max in out.

    Ties go to the lowest offset; a window whose max is nan keeps its last offset.
    """
    _, ho, wo, _ = out.shape
    views = _pool_views(x, window, stride, ho, wo)
    # scanning in reverse leaves the lowest flat offset that holds the max; a
    # window whose max is nan matches nothing and keeps the last offset
    indices = np.full(out.shape, views[-1][0], dtype=np.intp)
    mask = np.empty(out.shape, dtype=bool)
    for offset, view in reversed(views[:-1]):
        np.putmask(indices, np.equal(view, out, out=mask), offset)
    indices += (np.arange(ho)[:, None] * (stride * x.shape[2])
                + np.arange(wo) * stride)[:, :, None]
    return indices


def maxpool_backward(x, out, grad_out, window=3, stride=2) -> np.ndarray:
    """Adjoint of maxpool_forward(x) = out: route gradient to each window's
    winner, accumulating across overlaps."""
    x = np.asarray(x, dtype=DTYPE)
    out = np.asarray(out, dtype=DTYPE)
    grad_out = np.asarray(grad_out, dtype=DTYPE)
    n, h, w, c = x.shape
    pooled = (n, tensor.conv_extent(h, window, stride),
              tensor.conv_extent(w, window, stride), c)
    if grad_out.shape != pooled or out.shape != pooled:
        raise ValueError(
            f"grad_out shape {grad_out.shape} and output shape {out.shape} must match "
            f"the pooled input {pooled}; stale?"
        )
    idx = pool_winners(x, out, window, stride).reshape(n, -1, c)
    gidx = (np.arange(n)[:, None, None] * (h * w) + idx) * c + np.arange(c)[None, None, :]
    acc = np.bincount(gidx.ravel(), weights=grad_out.reshape(n, -1, c).ravel(),
                      minlength=n * h * w * c)
    return acc.reshape(n, h, w, c)


def _window_sum_channels(v, half):
    """Sum over the channel window [c - half, c + half] clipped to the tensor."""
    c = v.shape[-1]
    # running sums with half + 1 leading zeros and half trailing copies of the
    # total, so both window ends are plain slices: cs[j] = v[:clip(j - half, 0, c)].sum()
    cs = np.zeros(v.shape[:-1] + (c + 2 * half + 1,), dtype=DTYPE)
    np.cumsum(v, axis=-1, out=cs[..., half + 1:half + 1 + c])
    cs[..., half + 1 + c:] = cs[..., half + c:half + 1 + c]
    return cs[..., 2 * half + 1:] - cs[..., :c]


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
