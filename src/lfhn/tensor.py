"""Dense float64 tensor helpers shared by every layer.

Activations use (batch, height, width, channels) axis order and kernels use
(kernel_h, kernel_w, in_channels, out_channels); everything is a row-major
float64 numpy array. This module owns the extent arithmetic and the window
lowering of convolution: im2col turns sliding-window convolution into one
matrix product, and col2im is its adjoint. No window is padded.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.float64


def conv_extent(extent: int, window: int, stride: int) -> int:
    """Output extent of a strided window sweep; the division must be exact."""
    span = extent - window
    if span < 0:
        raise ValueError(f"window {window} larger than extent {extent}")
    if span % stride:
        raise ValueError(f"non-integral output extent: ({extent} - {window}) / {stride}")
    return span // stride + 1


def im2col(x, kh, kw, stride=1) -> np.ndarray:
    """Lower sliding windows to matrix rows.

    A batched (n, h, w, c) input yields (n, ho*wo, kh*kw*c), each row in
    (kh, kw, c) order.
    """
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 4:
        raise ValueError(f"im2col expects a rank-4 tensor, got shape {x.shape}")
    n, h, w, c = x.shape
    ho = conv_extent(h, kh, stride)
    wo = conv_extent(w, kw, stride)
    sn, sh, sw, sc = x.strides
    # (n, ho, wo, kh, kw, c) view of every window; the reshape is the one copy
    windows = np.lib.stride_tricks.as_strided(
        x, (n, ho, wo, kh, kw, c), (sn, sh * stride, sw * stride, sh, sw, sc), writeable=False)
    return windows.reshape(n, ho * wo, kh * kw * c)


def col2im(cols, input_shape, kh, kw, stride=1) -> np.ndarray:
    """Adjoint of im2col: scatter-add matrix rows back onto the image grid."""
    n, h, w, c = input_shape
    ho = conv_extent(h, kh, stride)
    wo = conv_extent(w, kw, stride)
    cols = np.asarray(cols, dtype=DTYPE).reshape(n, ho * wo, kh * kw * c)
    per_image = h * w * c
    # image pixel of each (output position, window offset), in im2col's order
    ys = np.repeat(np.arange(ho) * stride, wo)[:, None] + np.repeat(np.arange(kh), kw)
    xs = np.tile(np.arange(wo) * stride, ho)[:, None] + np.tile(np.arange(kw), kh)
    idx = (ys * w + xs)[:, :, None] * c + np.arange(c)
    # bincount gives a deterministic reduction order, unlike unbuffered adds
    gidx = (np.arange(n)[:, None] * per_image + idx.reshape(1, -1)).ravel()
    acc = np.bincount(gidx, weights=cols.reshape(n, -1).ravel(), minlength=n * per_image)
    return acc.reshape(n, h, w, c)
