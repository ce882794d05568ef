"""Multi-stream local-feature-hierarchy network built from scratch on numpy.

A root convolution + ReLU + max-pool + cross-channel response normalization
feeds parallel streams of 1x1 convolutions whose outputs are concatenated
along channels and classified with two fully connected layers. The package
also ships a synthetic pose/illumination corpus generator, an SGD training
loop with gradient checking, and a rank-1 per-pose evaluation harness.

Import the submodules (lfhn.graph, lfhn.train, lfhn.data, ...); the package
itself imports none of them, so that importing lfhn.cli does not load numpy
before --threads has set the BLAS thread count.
"""

__version__ = "0.1.0"
