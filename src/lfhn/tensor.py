"""Dense float64 tensor helpers shared by every layer.

Activations use (batch, height, width, channels) axis order and kernels use
(kernel_h, kernel_w, in_channels, out_channels); everything is a row-major
float64 numpy array. This module owns the extent arithmetic and the window
map that im2col, col2im and max pooling share; im2col turns sliding-window
convolution into one matrix product.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.float64


def conv_extent(extent: int, window: int, stride: int, pad: int) -> int:
    """Output extent of a strided window sweep; the division must be exact."""
    span = extent + 2 * pad - window
    if span < 0:
        raise ValueError(f"window {window} larger than padded extent {extent + 2 * pad}")
    if span % stride:
        raise ValueError(
            f"non-integral output extent: ({extent} + 2*{pad} - {window}) / {stride}"
        )
    return span // stride + 1


def window_offsets(h, w, kh, kw, stride, pad):
    """The window map shared by im2col, col2im and max pooling.

    Returns (offsets, ho, wo) where offsets has shape (ho*wo, kh*kw) and holds
    row-major pixel offsets into the zero-padded (h+2p, w+2p) grid. Row r
    lists the receptive field of output position r in (kh, kw) order.
    """
    ho = conv_extent(h, kh, stride, pad)
    wo = conv_extent(w, kw, stride, pad)
    wp = w + 2 * pad
    oy = np.repeat(np.arange(ho) * stride, wo)
    ox = np.tile(np.arange(wo) * stride, ho)
    ky = np.repeat(np.arange(kh), kw)
    kx = np.tile(np.arange(kw), kh)
    rows = oy[:, None] + ky[None, :]
    cols = ox[:, None] + kx[None, :]
    return rows * wp + cols, ho, wo


def im2col(x, kh, kw, stride=1, pad=0) -> np.ndarray:
    """Lower sliding windows to matrix rows.

    A batched (n, h, w, c) input yields (n, ho*wo, kh*kw*c), each row in
    (kh, kw, c) order. Padded positions contribute zeros.
    """
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 4:
        raise ValueError(f"im2col expects a rank-4 tensor, got shape {x.shape}")
    n, h, w, c = x.shape
    offsets, ho, wo = window_offsets(h, w, kh, kw, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    cols = np.take(x.reshape(n, -1, c), offsets.ravel(), axis=1)
    return cols.reshape(n, ho * wo, kh * kw * c)


def col2im(cols, input_shape, kh, kw, stride=1, pad=0) -> np.ndarray:
    """Adjoint of im2col: scatter-add matrix rows back onto the image grid."""
    n, h, w, c = input_shape
    offsets, ho, wo = window_offsets(h, w, kh, kw, stride, pad)
    cols = np.asarray(cols, dtype=DTYPE).reshape(n, ho * wo, kh * kw * c)
    hp, wp = h + 2 * pad, w + 2 * pad
    per_image = hp * wp * c
    idx = offsets[:, :, None] * c + np.arange(c)
    # bincount gives a deterministic reduction order, unlike unbuffered adds
    gidx = (np.arange(n)[:, None] * per_image + idx.reshape(1, -1)).ravel()
    acc = np.bincount(gidx, weights=cols.reshape(n, -1).ravel(), minlength=n * per_image)
    acc = acc.reshape(n, hp, wp, c)
    return np.ascontiguousarray(acc[:, pad:pad + h, pad:pad + w, :])
