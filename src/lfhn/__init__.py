"""Multi-stream local-feature-hierarchy network built from scratch on numpy.

A root convolution + ReLU + max-pool + cross-channel response normalization
feeds parallel streams of 1x1 convolutions whose outputs are concatenated
along channels and classified with two fully connected layers. The package
also ships a synthetic pose/illumination corpus generator, an SGD training
loop with gradient checking, and a rank-1 per-pose evaluation harness.

The names below load their module on first access, so that importing
lfhn.cli does not load numpy before --threads has set the BLAS thread count.
"""

import importlib

_EXPORTS = {
    "LfhnConfig": "graph",
    "NetworkGraph": "graph",
    "build_lfhn": "graph",
    "shape_trace": "graph",
    "LrnParams": "layers",
    "TrainConfig": "train",
    "GradReport": "train",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
