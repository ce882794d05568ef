"""Hand-rolled reference implementations the test suite checks against.

Everything here is deliberately written the slow, obvious way and stays
independent of the code paths under test.
"""

import numpy as np


def naive_conv(x, kernel, bias, stride=1):
    """Sliding-window convolution, one window dot product at a time."""
    n, h, w, cin = x.shape
    kh, kw, _, cout = kernel.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    kmat = kernel.reshape(-1, cout)
    out = np.zeros((n, ho, wo, cout))
    for b in range(n):
        for y in range(ho):
            for xo in range(wo):
                patch = x[b, y * stride:y * stride + kh, xo * stride:xo * stride + kw, :]
                out[b, y, xo, :] = patch.reshape(-1) @ kmat + bias
    return out


def naive_maxpool(x, window, stride):
    n, h, w, c = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    out = np.zeros((n, ho, wo, c))
    for b in range(n):
        for y in range(ho):
            for xo in range(wo):
                patch = x[b, y * stride:y * stride + window,
                          xo * stride:xo * stride + window, :]
                out[b, y, xo, :] = patch.max(axis=(0, 1))
    return out


def naive_im2col(x, kh, kw, stride=1):
    """Window rows in (kh, kw, c) order, one explicit window walk at a time."""
    n, h, w, c = x.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    out = np.zeros((n, ho * wo, kh * kw * c))
    for b in range(n):
        for y in range(ho):
            for xo in range(wo):
                patch = x[b, y * stride:y * stride + kh, xo * stride:xo * stride + kw, :]
                out[b, y * wo + xo] = patch.reshape(-1)
    return out


def gather_maxpool(x, window, stride):
    """Max pooling by gathering every window and taking its argmax.

    Returns (out, winners) where winners holds flat spatial offsets
    (row * width + col) into x; argmax keeps the first, so the lowest, offset
    among tied maxima.
    """
    n, h, w, c = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    rows = (np.arange(ho) * stride)[:, None, None, None] + np.arange(window)[None, None, :, None]
    cols = (np.arange(wo) * stride)[None, :, None, None] + np.arange(window)[None, None, None, :]
    offsets = (rows * w + cols).reshape(ho * wo, window * window)
    gathered = np.take(x.reshape(n, h * w, c), offsets, axis=1)  # (n, ho*wo, k, c)
    win = np.argmax(gathered, axis=2)
    out = np.take_along_axis(gathered, win[:, :, None, :], axis=2)[:, :, 0, :]
    winners = offsets[np.arange(ho * wo)[None, :, None], win]
    return out.reshape(n, ho, wo, c), winners.reshape(n, ho, wo, c)


def lrn_scalar(x, size, k, alpha, beta):
    """Per-element response normalization with explicit channel loops."""
    out = np.zeros_like(x)
    half = size // 2
    channels = x.shape[-1]
    flat = x.reshape(-1, channels)
    flat_out = out.reshape(-1, channels)
    for row in range(flat.shape[0]):
        for c in range(channels):
            acc = 0.0
            for cc in range(max(0, c - half), min(channels, c + half + 1)):
                acc += flat[row, cc] ** 2
            flat_out[row, c] = flat[row, c] / (k + (alpha / size) * acc) ** beta
    return out


def fd_grad(f, x, eps=1e-5):
    """Central-difference gradient of scalar f with respect to array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        grad.reshape(-1)[i] = (fp - fm) / (2 * eps)
    return grad


def max_rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float((np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)).max())


def walk_graph(net, batch):
    """Re-execute a network node by node with the naive ops above.

    Uses only the node metadata and the parameter registry, none of the
    layer implementations under test.
    """
    values = {"input": np.asarray(batch, dtype=np.float64)}
    for node in net.nodes[1:]:
        inputs = [values[name] for name in node.inputs]
        if node.kind == "conv":
            values[node.name] = naive_conv(
                inputs[0], net.params[f"{node.name}.kernel"],
                net.params[f"{node.name}.bias"], node.attrs["stride"])
        elif node.kind == "relu":
            values[node.name] = np.where(inputs[0] > 0, inputs[0], 0.0)
        elif node.kind == "maxpool":
            values[node.name] = naive_maxpool(inputs[0], node.attrs["window"],
                                              node.attrs["stride"])
        elif node.kind == "lrn":
            p = node.attrs["params"]
            values[node.name] = lrn_scalar(inputs[0], p.size, p.k, p.alpha, p.beta)
        elif node.kind == "concat":
            values[node.name] = np.concatenate(inputs, axis=-1)
        elif node.kind == "flatten":
            values[node.name] = inputs[0].reshape(inputs[0].shape[0], -1)
        elif node.kind == "fc":
            weight = net.params[f"{node.name}.weight"]
            bias = net.params[f"{node.name}.bias"]
            x = inputs[0]
            out = np.zeros((x.shape[0], weight.shape[1]))
            for row in range(x.shape[0]):
                for j in range(weight.shape[1]):
                    out[row, j] = float(x[row] @ weight[:, j]) + bias[j]
            values[node.name] = out
        else:
            raise AssertionError(f"unexpected node kind {node.kind}")
    return values[net.nodes[-1].name]
