"""Forward and backward math for every layer kind in the network.

Each backward function is the exact adjoint of its forward given the gradient
of a scalar loss with respect to the forward output. Nothing here mutates its
inputs, except relu when it is handed its input as out and relu_backward
when it is handed its gradient as out. Every function
computes on the arrays it is handed, in their dtype; graph.forward and
graph.backward fix that at float64.
"""

from __future__ import annotations

import numpy as np

from . import tensor


def conv_rows(x, kernel_shape, stride=1):
    """An empty (n, ho*wo, kh*kw*cin) array for the lowered rows of x, or
    None for a 1x1 kernel at stride 1, whose rows are a reshape of x."""
    kh, kw, cin, _ = kernel_shape
    if (kh, kw, stride) == (1, 1, 1):
        return None
    n, h, w, _ = x.shape
    ho = tensor.conv_extent(h, kh, stride)
    wo = tensor.conv_extent(w, kw, stride)
    return np.empty((n, ho * wo, kh * kw * cin), dtype=x.dtype)


def conv_forward(x, kernel, bias, stride=1, rows=None) -> np.ndarray:
    """Convolve (n, h, w, cin) with a (kh, kw, cin, cout) kernel and add the bias.

    A 1x1 kernel at stride 1 reads every pixel once: its lowered rows are a
    reshape of x. Any other kernel is lowered and multiplied one image at a
    time, each image's rows while they are in cache: into rows[i] when rows
    (conv_rows's array) is given, for conv_backward to reuse, and otherwise
    into one one-image array that every image reuses.
    """
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
    if (kh, kw, stride) == (1, 1, 1):
        if rows is not None:
            raise ValueError("a 1x1 kernel at stride 1 has no rows to lower")
        out = x.reshape(n * ho * wo, cin) @ weights
    else:
        out = np.empty((n, ho * wo, cout), dtype=x.dtype)
        one = conv_rows(x[:1], kernel.shape, stride) if rows is None else None
        for i in range(n):
            lowered = tensor.im2col(x[i:i + 1], kh, kw, stride,
                                    out=one if rows is None else rows[i:i + 1])
            np.matmul(lowered[0], weights, out=out[i])
    out += bias
    return out.reshape(n, ho, wo, cout)


def conv_backward(x, kernel, grad_out, stride=1, need_input_grad=True, out=None,
                  rows=None):
    """Adjoint of conv_forward at its input x.

    The weight gradient is rows.T @ grad_out over x's lowered rows: x
    itself for a 1x1 kernel at stride 1, else the rows conv_forward wrote,
    which must be given (ValueError if not). Returns
    (grad_input, grad_kernel, grad_bias); grad_input is None when
    need_input_grad is False, as graph.backward asks wherever no trainable
    parameter lies upstream of x (for conv1, which reads the batch,
    always). out, when given, is a (grad_kernel, grad_bias) pair of
    contiguous arrays that the two parameter gradients are written into
    and returned as.
    """
    n, h, w, _ = x.shape
    kh, kw, cin, cout = kernel.shape
    ho = tensor.conv_extent(h, kh, stride)
    wo = tensor.conv_extent(w, kw, stride)
    if grad_out.shape != (n, ho, wo, cout):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward output "
            f"{(n, ho, wo, cout)}"
        )
    pointwise = (kh, kw, stride) == (1, 1, 1)
    if rows is None:
        if not pointwise:
            raise ValueError("a lowered conv's backward needs the rows its forward wrote")
        rows = x
    elif rows.shape != (n, ho * wo, kh * kw * cin):
        raise ValueError(f"rows shape {rows.shape} is not that of the lowered input "
                         f"{(n, ho * wo, kh * kw * cin)}")
    g = grad_out.reshape(n * ho * wo, cout)
    grad_kernel, grad_bias = out or (np.empty(kernel.shape, np.result_type(x, g)), None)
    np.matmul(rows.reshape(n * ho * wo, kh * kw * cin).T, g,
              out=grad_kernel.reshape(-1, cout))
    grad_bias = grad_out.sum(axis=(0, 1, 2), out=grad_bias)
    grad_input = None
    if need_input_grad:
        gcols = g @ kernel.reshape(-1, cout).T
        if pointwise:
            grad_input = gcols.reshape(x.shape)
        else:
            grad_input = tensor.col2im(gcols, x.shape, kh, kw, stride)
    return grad_input, grad_kernel, grad_bias


def relu(x, out=None) -> np.ndarray:
    """Ramp activation max(0, x), written into out when given (out=x rectifies in place).

    relu(x) > 0 exactly where x > 0 (nan compares false on both sides), so
    relu_backward may be handed the output in place of the input.
    """
    return np.maximum(x, 0.0, out=out)


def relu_backward(x, grad_out, out=None) -> np.ndarray:
    """Pass gradient where x > 0; the subgradient at exactly 0 is 0.

    Written into out when given (out=grad_out masks the gradient in place).
    """
    return np.multiply(grad_out, x > 0.0, out=out)


def _pool_views(x, window, stride, ho, wo):
    """One strided view of x per window offset, keyed by its flat offset ky*w + kx."""
    w = x.shape[2]
    return [(ky * w + kx, x[:, ky:ky + (ho - 1) * stride + 1:stride,
                            kx:kx + (wo - 1) * stride + 1:stride])
            for ky in range(window) for kx in range(window)]


def maxpool_forward(x, window=3, stride=2) -> np.ndarray:
    """Channel-wise max over spatial windows; maxpool_backward finds the winners."""
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
        indices = np.where(np.equal(view, out, out=mask), offset, indices)
    indices += (np.arange(ho)[:, None] * (stride * x.shape[2])
                + np.arange(wo) * stride)[:, :, None]
    return indices


def maxpool_backward(x, out, grad_out, window=3, stride=2) -> np.ndarray:
    """Adjoint of maxpool_forward(x) = out: route gradient to each window's
    winner, accumulating across overlaps."""
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


def _window_sum_channels(v, half, out=None):
    """Sum over the channel window [c - half, c + half] clipped to the tensor,
    written into out when given."""
    c = v.shape[-1]
    # running sums with half + 1 leading zeros and half trailing copies of the
    # total, so both window ends are plain slices: cs[j] = v[:clip(j - half, 0, c)].sum()
    cs = np.zeros(v.shape[:-1] + (c + 2 * half + 1,), dtype=v.dtype)
    np.cumsum(v, axis=-1, out=cs[..., half + 1:half + 1 + c])
    cs[..., half + 1 + c:] = cs[..., half + c:half + 1 + c]
    return np.subtract(cs[..., 2 * half + 1:], cs[..., :c], out=out)


def lrn_forward(x, size, k, alpha, beta, base=None) -> np.ndarray:
    """Divide each value by base ** beta, base = k + (alpha/size) * local
    channel energy.

    The local region spans size nearby channels, centered on each channel and
    truncated at the tensor edges. LfhnConfig checks the constants. base,
    when given, is an array of x's shape that receives the base, for
    lrn_backward.
    """
    base = _window_sum_channels(x * x, size // 2, out=base)
    base *= alpha / size
    base += k
    return x / base ** beta


def lrn_backward(x, grad_out, size, k, alpha, beta, base=None) -> np.ndarray:
    """Exact derivative of lrn_forward including the shared-denominator terms.

    base is the array lrn_forward(x, ..., base=) filled (ValueError if not given).
    """
    if grad_out.shape != x.shape:
        raise ValueError(f"grad_out shape {grad_out.shape} does not match input {x.shape}")
    if base is None:
        raise ValueError("lrn_backward needs the base its forward filled")
    # out_c = x_c * base_c**-beta, and channel j appears in the window of c iff
    # c appears in the window of j, so the cross terms fold into one window sum
    t = grad_out * x * base ** (-beta - 1.0)
    cross = _window_sum_channels(t, size // 2)
    return grad_out * base ** (-beta) - (2.0 * alpha * beta / size) * x * cross


def concat_channels(inputs) -> np.ndarray:
    """Concatenate along the channel axis; all inputs must agree spatially."""
    if not inputs:
        raise ValueError("concat_channels needs at least one input")
    lead = inputs[0].shape[:-1]
    for a in inputs[1:]:
        if a.shape[:-1] != lead:
            raise ValueError(
                f"concat spatial mismatch: {a.shape[:-1]} versus {lead}"
            )
    return np.concatenate(inputs, axis=-1)


def split_channels(grad, extents):
    """Exact inverse of concat_channels for a channel-extent list: views of grad."""
    if sum(extents) != grad.shape[-1]:
        raise ValueError(
            f"channel extents {list(extents)} do not sum to {grad.shape[-1]}"
        )
    cuts = np.cumsum(extents)[:-1]
    return np.split(grad, cuts, axis=-1)


def fc_forward(x, weight, bias) -> np.ndarray:
    """Affine map out[j] = sum_i x[i] * weight[i, j] + bias[j], batched over rows."""
    out = x @ weight
    out += bias
    return out


# fc_backward's weight-gradient row block, in bytes. One BLAS call over a
# large gradient most likely passes over it twice, as OpenBLAS clears C for
# beta = 0 before it accumulates; a block is still in cache for the second
# pass. For fc6's 364500x512 gradient at batch 4 (2 cores, OpenBLAS 0.3.31
# at 2 threads; median of 6 calls) one call took 164 ms, and blocks of 2, 4,
# 6, 8 and 16 MiB took 141, 121, 140, 159 and 156 ms. The input gradient in
# the same row blocks was no faster: 117 against 115 ms. With OpenBLAS
# 0.3.31's SkylakeX kernels the blocks give one call's bits for an fc of at
# most 192 outputs or a multiple of 8, as LfhnConfig()'s fc6 is (no other fc
# of it or of desk_config splits); at other widths a block's edge rows round
# differently.
FC_BLOCK_BYTES = 4 << 20


def fc_backward(x, weight, grad_out, need_input_grad=True, out=None):
    """Adjoint of fc_forward: (grad_input, grad_weight, grad_bias).

    grad_input is None when need_input_grad is False, as graph.backward
    asks wherever no trainable parameter lies upstream of x (for fc6 when
    every conv is frozen). out, when given, is a (grad_weight, grad_bias)
    pair that the parameter gradients are written into and returned as.
    grad_weight = x.T @ grad_out is written in row blocks of at least
    FC_BLOCK_BYTES, each while it is in cache; a weight under two blocks
    takes one call.
    """
    grad_weight, grad_bias = out or (np.empty(weight.shape, np.result_type(x, grad_out)),
                                     None)
    # at least two rows per block: numpy hands a one-row product to gemv,
    # which rounds differently from a GEMM
    n_blocks = max(1, min(grad_weight.nbytes // FC_BLOCK_BYTES, len(grad_weight) // 2))
    cuts = [len(grad_weight) * i // n_blocks for i in range(n_blocks + 1)]
    for start, stop in zip(cuts, cuts[1:]):
        np.matmul(x.T[start:stop], grad_out, out=grad_weight[start:stop])
    grad_bias = grad_out.sum(axis=0, out=grad_bias)
    grad_input = grad_out @ weight.T if need_input_grad else None
    return grad_input, grad_weight, grad_bias


def softmax_xent(logits, labels):
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits.

    logits is (n, k), as graph.forward returns them; labels is an int vector
    of length n. The returned gradient is (softmax - onehot) / n, matching
    the batch-mean loss.
    """
    labels = np.asarray(labels, dtype=np.int64)
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
