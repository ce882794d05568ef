"""The multi-stream network as a small DAG with a named parameter registry.

The graph template is fixed: a root convolution, ReLU, 3x3/stride-2 max pool
and response normalization, then parallel streams of 1x1 convolutions off the
normalized root features, channel concatenation, one more 1x1 convolution,
flatten, a hidden fully connected layer and the class logits. Convolutions
are numbered in build order (conv1 is the root, the post-concat mixer gets
the next free number), fully connected layers continue the numbering.

All per-kind code lives in one table, OPS: each node kind's forward and
backward step. Nodes record their output and parameter shapes when built.
"""

from __future__ import annotations

import collections
import contextlib
import math
import os
import struct
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import layers
from .layers import LrnParams
from .tensor import DTYPE, conv_extent

CHECKPOINT_MAGIC = b"LFHN"
CHECKPOINT_VERSION = 1

POOL_WINDOW = 3
POOL_STRIDE = 2


class GraphConfigError(ValueError):
    """A configuration that cannot produce integral feature extents."""


class CheckpointError(ValueError):
    """Malformed, truncated, or architecture-mismatched checkpoint file."""


@dataclass(frozen=True)
class LfhnConfig:
    input_height: int = 227
    input_width: int = 227
    input_channels: int = 3
    root_kernel: int = 11
    root_channels: int = 96
    root_stride: int = 4
    streams: tuple = ((200, 400), (300,))
    post_concat_channels: int = 500
    fc_hidden: int = 512
    num_classes: int = 337
    relu_after_1x1: bool = True
    relu_after_hidden: bool = True
    lrn_size: int = 5
    lrn_k: float = 2.0
    lrn_alpha: float = 1e-4
    lrn_beta: float = 0.75

    def __post_init__(self):
        extents = (self.input_height, self.input_width, self.input_channels,
                   self.root_kernel, self.root_channels, self.root_stride,
                   self.post_concat_channels, self.fc_hidden, self.num_classes)
        if any(e < 1 for e in extents):
            raise ValueError("all extents and widths must be >= 1")
        if not self.streams or any(not s for s in self.streams):
            raise ValueError("streams must be a non-empty tuple of non-empty width tuples")
        if any(w < 1 for s in self.streams for w in s):
            raise ValueError("stream widths must be >= 1")
        object.__setattr__(self, "streams", tuple(tuple(int(w) for w in s)
                                                  for s in self.streams))
        _ = self.lrn  # LrnParams rejects bad constants

    @property
    def lrn(self) -> LrnParams:
        return LrnParams(self.lrn_size, self.lrn_k, self.lrn_alpha, self.lrn_beta)

    @property
    def concat_channels(self) -> int:
        return sum(s[-1] for s in self.streams)


def tiny_config(num_classes: int = 3) -> LfhnConfig:
    """Smallest configuration that exercises every layer kind.

    Sized for finite-difference gradient checks: 8x8x3 input, stream widths
    (4, 6) and (5,), three classes. The larger LRN alpha keeps the
    cross-channel terms well above checking tolerance.
    """
    return LfhnConfig(
        input_height=8, input_width=8, input_channels=3,
        root_kernel=2, root_channels=4, root_stride=1,
        streams=((4, 6), (5,)), post_concat_channels=5,
        fc_hidden=8, num_classes=num_classes,
        lrn_size=3, lrn_k=2.0, lrn_alpha=1e-2, lrn_beta=0.75,
    )


def desk_config(num_classes: int, channels: int = 1) -> LfhnConfig:
    """67x67 variant small enough to train on a synthetic corpus in minutes."""
    return LfhnConfig(
        input_height=67, input_width=67, input_channels=channels,
        root_kernel=11, root_channels=16, root_stride=4,
        streams=((16, 24), (16,)), post_concat_channels=24,
        fc_hidden=64, num_classes=num_classes,
    )


@dataclass
class Node:
    """One template node; shape is its output without the batch axis."""

    name: str
    kind: str
    inputs: tuple
    attrs: dict
    shape: tuple = ()
    param_shapes: dict = field(default_factory=dict)  # role -> shape of "<name>.<role>"


def _tiled_extent(name, extent, window, stride):
    """Output extent of conv1's or pool1's window, the only ones that can fail to tile."""
    try:
        return conv_extent(extent, window, stride)
    except ValueError as err:
        raise GraphConfigError(f"{name}: {err}") from err


def _architecture(cfg: LfhnConfig):
    """Node list of the template in topological order, each node with its shape.

    Spatial nodes record (h, w, c) and the flatten/fc tail records (dim,).
    Raises GraphConfigError naming the node whose extents do not work out.
    """
    nodes = [Node("input", "input", (), {},
                  (cfg.input_height, cfg.input_width, cfg.input_channels))]

    def add(name, kind, inputs, shape, param_shapes=None, **attrs):
        nodes.append(Node(name, kind, tuple(inputs), attrs, shape, param_shapes or {}))
        return name

    def add_conv(name, prev, shape, kernel, in_channels, stride):
        out = shape[-1]
        return add(name, "conv", [prev], shape,
                   {"kernel": (kernel, kernel, in_channels, out), "bias": (out,)},
                   stride=stride)

    k, s = cfg.root_kernel, cfg.root_stride
    hw = (_tiled_extent("conv1", cfg.input_height, k, s),
          _tiled_extent("conv1", cfg.input_width, k, s))
    root_shape = hw + (cfg.root_channels,)
    prev = add_conv("conv1", "input", root_shape, k, cfg.input_channels, s)
    prev = add("relu1", "relu", [prev], root_shape)
    hw = tuple(_tiled_extent("pool1", e, POOL_WINDOW, POOL_STRIDE) for e in hw)
    root_shape = hw + (cfg.root_channels,)
    prev = add("pool1", "maxpool", [prev], root_shape, window=POOL_WINDOW, stride=POOL_STRIDE)
    root = add("norm1", "lrn", [prev], root_shape, params=cfg.lrn)

    number = 2
    tails = []
    for widths in cfg.streams:
        prev = root
        channels = cfg.root_channels
        for width in widths:
            prev = add_conv(f"conv{number}", prev, hw + (width,), 1, channels, 1)
            if cfg.relu_after_1x1:
                prev = add(f"relu{number}", "relu", [prev], hw + (width,))
            channels = width
            number += 1
        tails.append(prev)

    prev = add("concat", "concat", tails, hw + (cfg.concat_channels,))
    mixed_shape = hw + (cfg.post_concat_channels,)
    prev = add_conv(f"conv{number}", prev, mixed_shape, 1, cfg.concat_channels, 1)
    if cfg.relu_after_1x1:
        prev = add(f"relu{number}", "relu", [prev], mixed_shape)
    number += 1

    flat = hw[0] * hw[1] * cfg.post_concat_channels
    prev = add("flatten", "flatten", [prev], (flat,))
    prev = add(f"fc{number}", "fc", [prev], (cfg.fc_hidden,),
               {"weight": (flat, cfg.fc_hidden), "bias": (cfg.fc_hidden,)})
    if cfg.relu_after_hidden:
        prev = add(f"relu{number}", "relu", [prev], (cfg.fc_hidden,))
    number += 1
    add(f"fc{number}", "fc", [prev], (cfg.num_classes,),
        {"weight": (cfg.fc_hidden, cfg.num_classes), "bias": (cfg.num_classes,)})
    return nodes


def shape_trace(cfg: LfhnConfig):
    """Per-node output shapes without allocating any activation.

    Returns [(node_name, shape)] where spatial nodes report (h, w, c) and the
    flatten/fc tail reports (dim,). Raises GraphConfigError naming the node
    whose extents do not work out.
    """
    return [(node.name, node.shape) for node in _architecture(cfg)]


def parameter_shapes(cfg: LfhnConfig):
    """Registry layout {param_name: shape} implied by the configuration."""
    return {f"{node.name}.{role}": shape for node in _architecture(cfg)
            for role, shape in node.param_shapes.items()}


class NetworkGraph:
    """Ordered node list plus the named parameter registry.

    Parameters of node names listed in `frozen` receive no gradient entries
    from backward(). The node list is topologically ordered by construction
    and validated on creation: each node after the input needs an OPS entry.
    """

    def __init__(self, config, nodes, params, frozen=()):
        self.config = config
        self.nodes = list(nodes)
        self.params = dict(params)
        self.frozen = set(frozen)
        last_reader = {}
        for node in self.nodes:
            if node.name in last_reader:
                raise ValueError(f"duplicate node name {node.name!r}")
            for dep in node.inputs:
                if dep not in last_reader:
                    raise ValueError(f"node {node.name!r} depends on {dep!r} "
                                     "which does not precede it")
                last_reader[dep] = node.name
            last_reader[node.name] = node.name  # until a later node reads it
        for node in self.nodes[1:]:
            if node.kind not in OPS:
                raise ValueError(f"node {node.name!r} has unknown kind {node.kind!r}")
        # dead_after[name]: the tensors no node after `name` reads, which an
        # inference forward frees once `name` has run; the output never dies
        self.dead_after = {node.name: [] for node in self.nodes}
        for name, reader in last_reader.items():
            if name != self.output_name:
                self.dead_after[reader].append(name)
        # relu nodes that rectify their input in place: they are its only
        # reader, and it is an array its producer allocated, not the
        # caller's batch or a flatten view of another tensor
        readers = collections.Counter(dep for node in self.nodes for dep in node.inputs)
        kinds = {node.name: node.kind for node in self.nodes}
        self.relu_in_place = {
            node.name for node in self.nodes
            if node.kind == "relu" and readers[node.inputs[0]] == 1
            and kinds[node.inputs[0]] not in ("input", "flatten")}

    @property
    def output_name(self) -> str:
        return self.nodes[-1].name


def build_lfhn(cfg: LfhnConfig, seed: int = 0) -> NetworkGraph:
    """Construct the network with He-initialized kernels and zero biases."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in parameter_shapes(cfg).items():
        if name.endswith(".bias"):
            params[name] = np.zeros(shape, dtype=DTYPE)
        else:
            fan_in = int(np.prod(shape[:-1]))
            # normal() already draws float64; copy=False keeps one fc6-sized array
            std = np.sqrt(2.0 / fan_in)
            params[name] = rng.normal(0.0, std, shape).astype(DTYPE, copy=False)
    return NetworkGraph(cfg, _architecture(cfg), params)


def _conv_forward(net, node, xs, cache):
    out, rows = layers.conv_forward(
        xs[0], net.params[f"{node.name}.kernel"], net.params[f"{node.name}.bias"],
        node.attrs["stride"], keep_rows=cache is not None)
    if cache is not None:
        cache[f"{node.name}#rows"] = rows
    return out


def _conv_backward(net, node, xs, cache, g):
    gi, gk, gb = layers.conv_backward(cache[f"{node.name}#rows"], xs[0].shape,
                                      net.params[f"{node.name}.kernel"], g,
                                      node.attrs["stride"], node.inputs[0] != "input")
    return [gi], {"kernel": gk, "bias": gb}


def _fc_backward(net, node, xs, cache, g):
    gi, gw, gb = layers.fc_backward(xs[0], net.params[f"{node.name}.weight"], g)
    return [gi], {"weight": gw, "bias": gb}


# {kind: (forward step, backward step)}. forward(net, node, xs, cache) returns
# the node's output from its input tensors xs and may store what its backward
# needs in cache, which is None in an inference forward. backward(net, node,
# xs, cache, g) returns the gradients of xs (None where not needed) and the
# parameter gradients by role. Layers and parameters are looked up at call
# time, so that patches and rebound arrays take effect. Pool attrs are
# maxpool's keywords.
OPS = {
    "conv": (_conv_forward, _conv_backward),
    "relu": (lambda net, node, xs, cache: layers.relu(
                 xs[0], out=xs[0] if node.name in net.relu_in_place else None),
             lambda net, node, xs, cache, g: ([layers.relu_backward(xs[0], g)], {})),
    "maxpool": (lambda net, node, xs, cache: layers.maxpool_forward(xs[0], **node.attrs),
                lambda net, node, xs, cache, g: (
                    [layers.maxpool_backward(xs[0], cache[node.name], g, **node.attrs)], {})),
    "lrn": (lambda net, node, xs, cache: layers.lrn_forward(xs[0], node.attrs["params"]),
            lambda net, node, xs, cache, g: (
                [layers.lrn_backward(xs[0], node.attrs["params"], g)], {})),
    "concat": (lambda net, node, xs, cache: layers.concat_channels(xs),
               lambda net, node, xs, cache, g: (
                   layers.split_channels(g, [x.shape[-1] for x in xs]), {})),
    "flatten": (lambda net, node, xs, cache: xs[0].reshape(xs[0].shape[0], -1),
                lambda net, node, xs, cache, g: ([g.reshape(xs[0].shape)], {})),
    "fc": (lambda net, node, xs, cache: layers.fc_forward(
               xs[0], net.params[f"{node.name}.weight"], net.params[f"{node.name}.bias"]),
           _fc_backward),
}


def forward(net: NetworkGraph, batch, inference=False):
    """Run the graph on a batch, returning (logits, activation cache).

    The cache maps node names to outputs; conv nodes additionally store their
    lowered input rows under "<name>#rows". backward() needs the full cache
    and consumes it. With inference=True the cache is None: each tensor is
    freed once the last node that reads it (net.dead_after) has run and convs
    keep no rows, so only live tensors are held. In both modes a relu in
    net.relu_in_place rectifies its input in place, so a conv or fc read only
    by a ReLU shares one tensor with it; the batch itself is never written.
    The logits are the same bits either way. The batch must be floating
    point; data.network_input scales raw pixels.
    """
    x = np.asarray(batch)
    if not np.issubdtype(x.dtype, np.floating):
        raise ValueError(f"batch dtype {x.dtype} is not floating point; scale raw "
                         "pixels with data.network_input first")
    x = x.astype(DTYPE, copy=False)
    expected = (net.config.input_height, net.config.input_width, net.config.input_channels)
    if x.ndim != 4 or x.shape[1:] != expected:
        raise ValueError(f"batch shape {x.shape} does not match input "
                         f"(n, {expected[0]}, {expected[1]}, {expected[2]})")
    tensors = {"input": x}
    cache = None if inference else tensors
    for node in net.nodes[1:]:
        xs = [tensors[name] for name in node.inputs]
        tensors[node.name] = OPS[node.kind][0](net, node, xs, cache)
        if inference:
            for name in net.dead_after[node.name]:
                del tensors[name]
    return tensors[net.output_name], cache


def backward(net: NetworkGraph, cache, grad_logits):
    """Whole-graph adjoint: gradient registry for every non-frozen parameter.

    Consumes the cache: a node's output and rows are dropped once its own
    backward step has run, since every node that reads them in backward
    (the node and its consumers) has run by then. Only "input", the
    caller's batch, is left.
    """
    if cache is None:
        raise ValueError("no activation cache: an inference forward frees each "
                         "tensor after its last reader; backward needs "
                         "forward(net, batch) with inference=False")
    if cache.keys() == {"input"}:
        raise ValueError("the activation cache was consumed by an earlier backward; "
                         "run forward again")
    if "input" not in cache or net.output_name not in cache:
        raise ValueError("cache does not come from a matching forward pass")
    grad_logits = np.asarray(grad_logits, dtype=DTYPE)
    if grad_logits.shape != cache[net.output_name].shape:
        raise ValueError(f"grad_logits shape {grad_logits.shape} does not match "
                         f"logits {cache[net.output_name].shape}")
    node_grads = {net.output_name: grad_logits}
    param_grads = {}
    for node in reversed(net.nodes[1:]):
        g = node_grads.pop(node.name, None)
        if g is not None:
            xs = [cache[name] for name in node.inputs]
            input_grads, grads = OPS[node.kind][1](net, node, xs, cache, g)
            for name, gi in zip(node.inputs, input_grads):
                if gi is not None:
                    node_grads[name] = node_grads[name] + gi if name in node_grads else gi
            if node.name not in net.frozen:
                for role, value in grads.items():
                    param_grads[f"{node.name}.{role}"] = value
        cache.pop(node.name, None)
        cache.pop(f"{node.name}#rows", None)
    return param_grads


def field_types(cls) -> dict:
    """{field name: type} of a config dataclass, in field order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def format_value(kind, value) -> str:
    """Text form of a config value; parse_value(kind, ...) reads it back."""
    if kind is bool:
        return "true" if value else "false"
    if kind is float:
        return repr(value)
    if kind is tuple:
        return "|".join(",".join(str(w) for w in s) for s in value)
    return str(value)


def parse_value(kind, text):
    """Read a config value: tuples are stream widths such as 200,400|300."""
    if kind is bool:
        value = text.strip().lower()
        if value in ("true", "1", "yes", "on"):
            return True
        if value in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if kind is tuple:
        return tuple(tuple(int(w) for w in part.split(",")) for part in text.split("|"))
    return kind(text)


def _config_from_block(text: str):
    values = {}
    for line in text.splitlines():
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckpointError(f"malformed config line {line!r}")
        values[key] = value
    kwargs = {}
    for key, kind in field_types(LfhnConfig).items():
        if key not in values:
            raise CheckpointError(f"invalid config block: missing key {key!r}")
        try:
            kwargs[key] = parse_value(kind, values[key])
        except ValueError as err:
            raise CheckpointError(f"invalid config block: {key}: {err}") from err
    try:
        cfg = LfhnConfig(**kwargs)
    except ValueError as err:
        raise CheckpointError(f"invalid config block: {err}") from err
    frozen = tuple(n for n in values.get("frozen", "").split(",") if n)
    return cfg, frozen


def save_checkpoint(net: NetworkGraph, path):
    """Write config plus every parameter tensor; the round trip is bit-exact.

    The records go to "<path>.tmp", which replaces path only once it is
    complete, so a failed save leaves an earlier checkpoint at path intact.
    """
    lines = [f"{key}={format_value(kind, getattr(net.config, key))}"
             for key, kind in field_types(LfhnConfig).items()]
    lines.append(f"frozen={','.join(sorted(net.frozen))}")
    config_blob = "\n".join(lines).encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(config_blob)))
            fh.write(config_blob)
            fh.write(struct.pack("<I", len(net.params)))
            for name, arr in net.params.items():
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(np.ascontiguousarray(arr, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path, num_classes=None) -> NetworkGraph:
    """Rebuild a saved network; optionally insist on a class count."""
    with open(path, "rb") as fh:

        def take(n, what):
            data = fh.read(n)
            if len(data) != n:
                raise CheckpointError(f"truncated checkpoint while reading {what}")
            return data

        def text(n, what):
            try:
                return take(n, what).decode("utf-8")
            except UnicodeDecodeError as err:
                raise CheckpointError(f"{what} is not UTF-8 text: {err}") from err

        if take(4, "magic") != CHECKPOINT_MAGIC:
            raise CheckpointError("bad magic bytes: not a checkpoint file")
        (version,) = struct.unpack("<I", take(4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (config_len,) = struct.unpack("<I", take(4, "config length"))
        cfg, frozen = _config_from_block(text(config_len, "config"))
        if num_classes is not None and cfg.num_classes != num_classes:
            raise CheckpointError(
                f"shape disagreement: checkpoint was built for {cfg.num_classes} "
                f"classes, caller expects {num_classes}"
            )
        try:
            expected = parameter_shapes(cfg)
        except GraphConfigError as err:
            raise CheckpointError(f"invalid config block: {err}") from err
        (count,) = struct.unpack("<I", take(4, "parameter count"))
        if count != len(expected):
            raise CheckpointError(f"checkpoint stores {count} parameters, "
                                  f"config implies {len(expected)}")
        params = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4, "name length"))
            name = text(name_len, "parameter name")
            if name not in expected:
                raise CheckpointError(f"unexpected parameter {name!r}")
            (ndim,) = struct.unpack("<I", take(4, "rank"))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "shape"))
            if shape != expected[name]:
                raise CheckpointError(f"shape disagreement for {name!r}: file has "
                                      f"{shape}, config implies {expected[name]}")
            # refuse a record longer than the rest of the file before allocating it
            if 8 * math.prod(shape) > os.fstat(fh.fileno()).st_size - fh.tell():
                raise CheckpointError(f"truncated checkpoint while reading {name}")
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise CheckpointError(f"truncated checkpoint while reading {name}")
            params[name] = arr
        if fh.read(1):
            raise CheckpointError("trailing bytes after the last parameter record")
    net = NetworkGraph(cfg, _architecture(cfg), params, frozen)
    missing = set(expected) - set(params)
    if missing:
        raise CheckpointError(f"missing parameters: {sorted(missing)}")
    return net


def load_root_weights(net: NetworkGraph, path):
    """Install pretrained root-layer weights from a flat float64 file.

    The file holds the kernel values in (kh, kw, cin, cout) row-major order
    followed by the cout bias values, all little-endian float64.
    """
    kernel = net.params["conv1.kernel"]
    bias = net.params["conv1.bias"]
    expected = kernel.size + bias.size
    raw = np.fromfile(path, dtype="<f8")
    if raw.size != expected:
        raise ValueError(f"root weight file holds {raw.size} floats, "
                         f"expected {expected} for shape {kernel.shape} + bias")
    net.params["conv1.kernel"] = np.ascontiguousarray(
        raw[:kernel.size].reshape(kernel.shape), dtype=DTYPE)
    net.params["conv1.bias"] = np.ascontiguousarray(
        raw[kernel.size:], dtype=DTYPE)

