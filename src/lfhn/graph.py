"""The multi-stream network as a small DAG with a named parameter registry.

The graph template is fixed: a root convolution, ReLU, 3x3/stride-2 max pool
and response normalization, then parallel streams of 1x1 convolutions off the
normalized root features, channel concatenation, one more 1x1 convolution,
flatten, a hidden fully connected layer and the class logits. Each conv and
the hidden layer is followed by its ReLU, as in Network in Network (arXiv
1312.4400). Convolutions are numbered in build order (conv1 is the root, the
post-concat mixer gets the next free number), fc layers continue the numbering.

The node list is derived from the config alone: a NetworkGraph is its
config, the parameter arrays and the fixed set of nodes that do not train.
All per-kind code lives in one table, OPS: each node kind's forward and
backward step. Nodes record their output shape and their parameters' full
names and shapes when built.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import struct
import types
import typing
from dataclasses import dataclass, fields

import numpy as np

from . import layers
from .tensor import DTYPE, conv_extent

CHECKPOINT_MAGIC = b"LFHN"
CHECKPOINT_VERSION = 2

POOL_WINDOW = 3
POOL_STRIDE = 2

# load_checkpoint starts no more reader threads than one per this many bytes
# of float data, so a small checkpoint is read on the calling thread alone
READ_SPAN_BYTES = 8 << 20
# build_lfhn draws a weight tensor of more than this many values (one read
# span of float64) in blocks of this size, each from its own seeded stream
INIT_BLOCK = READ_SPAN_BYTES // 8


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
    lrn_size: int = 5
    lrn_k: float = 2.0
    lrn_alpha: float = 1e-4
    lrn_beta: float = 0.75

    def __post_init__(self):
        # every int field is an extent, a width, a count or lrn_size
        for key, kind in field_types(LfhnConfig).items():
            if kind is int and getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not self.streams or any(not s for s in self.streams):
            raise ValueError("streams must be a non-empty tuple of non-empty width tuples")
        for n, widths in enumerate(self.streams, start=1):
            if any(w < 1 for w in widths):
                raise ValueError(f"streams: stream {n} widths must be >= 1, "
                                 f"got {','.join(map(str, widths))}")
        object.__setattr__(self, "streams", tuple(tuple(int(w) for w in s)
                                                  for s in self.streams))
        # k > 0 and beta > 0 keep the LRN denominator positive and differentiable
        if not 0 < self.lrn_k < math.inf:
            raise ValueError(f"lrn_k must be finite and > 0, got {self.lrn_k}")
        if not 0 <= self.lrn_alpha < math.inf:
            raise ValueError(f"lrn_alpha must be finite and >= 0, got {self.lrn_alpha}")
        if not 0 < self.lrn_beta < math.inf:
            raise ValueError(f"lrn_beta must be finite and > 0, got {self.lrn_beta}")
        _architecture(self)  # a config whose conv1 or pool1 does not tile fails here

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


def desk_config(num_classes: int) -> LfhnConfig:
    """67x67x1 variant small enough to train on a synthetic corpus in minutes."""
    return LfhnConfig(
        input_height=67, input_width=67, input_channels=1,
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
    shape: tuple
    param_shapes: dict  # "<name>.<role>" -> shape, in the order the node's step takes them


def _tiled_extent(name, extent, window, stride):
    """Output extent of conv1's or pool1's window, the only ones that can fail to tile."""
    try:
        return conv_extent(extent, window, stride)
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from err


def _architecture(cfg: LfhnConfig):
    """Node list of the template in topological order, each node with its shape.

    Spatial nodes record (h, w, c) and the flatten/fc tail records (dim,).
    Raises ValueError naming the node whose extents do not work out.
    """
    nodes = [Node("input", "input", (), {},
                  (cfg.input_height, cfg.input_width, cfg.input_channels), {})]

    def add(name, kind, inputs, shape, param_shapes=None, **attrs):
        params = {f"{name}.{role}": dims for role, dims in (param_shapes or {}).items()}
        nodes.append(Node(name, kind, tuple(inputs), attrs, shape, params))
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
    root = add("norm1", "lrn", [prev], root_shape, size=cfg.lrn_size, k=cfg.lrn_k,
               alpha=cfg.lrn_alpha, beta=cfg.lrn_beta)

    number = 2
    tails = []
    for widths in cfg.streams:
        prev = root
        channels = cfg.root_channels
        for width in widths:
            prev = add_conv(f"conv{number}", prev, hw + (width,), 1, channels, 1)
            prev = add(f"relu{number}", "relu", [prev], hw + (width,))
            channels = width
            number += 1
        tails.append(prev)

    prev = add("concat", "concat", tails, hw + (cfg.concat_channels,))
    mixed_shape = hw + (cfg.post_concat_channels,)
    prev = add_conv(f"conv{number}", prev, mixed_shape, 1, cfg.concat_channels, 1)
    prev = add(f"relu{number}", "relu", [prev], mixed_shape)
    number += 1

    flat = hw[0] * hw[1] * cfg.post_concat_channels
    prev = add("flatten", "flatten", [prev], (flat,))
    prev = add(f"fc{number}", "fc", [prev], (cfg.fc_hidden,),
               {"weight": (flat, cfg.fc_hidden), "bias": (cfg.fc_hidden,)})
    prev = add(f"relu{number}", "relu", [prev], (cfg.fc_hidden,))
    number += 1
    add(f"fc{number}", "fc", [prev], (cfg.num_classes,),
        {"weight": (cfg.fc_hidden, cfg.num_classes), "bias": (cfg.num_classes,)})
    return nodes


def shape_trace(cfg: LfhnConfig):
    """Per-node output shapes without allocating any activation.

    Returns [(node_name, shape)] where spatial nodes report (h, w, c) and the
    flatten/fc tail reports (dim,). Every LfhnConfig tiles, so this cannot fail.
    """
    return [(node.name, node.shape) for node in _architecture(cfg)]


def parameter_shapes(cfg: LfhnConfig):
    """Registry layout {param_name: shape} implied by the configuration."""
    return {name: shape for node in _architecture(cfg)
            for name, shape in node.param_shapes.items()}


class NetworkGraph:
    """The config's node list (_architecture) plus the named parameter registry.

    frozen names the nodes whose parameters do not train; it is fixed when
    the net is built, and a name that is not a node with parameters is
    refused. backward() runs the steps of backward_steps only, and makes
    no gradient entry for a frozen parameter. grads holds {param name:
    gradient array}: backward makes a parameter's entry the first time it
    computes that gradient and writes every later one into the same array,
    so a net that has run backward holds one gradient array per trainable
    parameter (fc6's is 1429 MiB at the paper's size), and one that never
    has, none.
    """

    def __init__(self, config, params, frozen=()):
        self.config = config
        self.nodes = _architecture(config)
        self.params = dict(params)
        self.frozen = frozenset(frozen)
        unknown = self.frozen - {node.name for node in self.nodes if node.param_shapes}
        if unknown:
            raise ValueError(f"frozen {sorted(unknown)} are not nodes with parameters")
        self.grads = {}
        # backward_steps: the nodes whose backward step runs, those at or
        # downstream of a trainable parameter. With only conv1 frozen,
        # conv1, relu1, pool1 and norm1 are not among them.
        steps = set()
        last_reader = {}
        for node in self.nodes:
            if (node.param_shapes and node.name not in self.frozen
                    or not steps.isdisjoint(node.inputs)):
                steps.add(node.name)
            for dep in node.inputs:
                last_reader[dep] = node.name
            last_reader[node.name] = node.name  # until a later node reads it
        self.backward_steps = frozenset(steps)
        # dead_after[name]: the tensors no node after `name` reads, which an
        # inference forward frees once `name` has run; the output never dies
        self.dead_after = {node.name: [] for node in self.nodes}
        for name, reader in last_reader.items():
            if name != self.output_name:
                self.dead_after[reader].append(name)

    @property
    def output_name(self) -> str:
        return self.nodes[-1].name


def build_lfhn(cfg: LfhnConfig, seed: int = 0) -> NetworkGraph:
    """Construct the network with He-initialized kernels and zero biases.

    Each weight is normal with standard deviation sqrt(2 / fan_in). A weight
    tensor of at most INIT_BLOCK values is drawn from default_rng(seed), in
    registry order. A larger one takes nothing from that stream: block b of
    its values in row-major order (INIT_BLOCK of them, fewer in the last) is
    drawn from default_rng(SeedSequence(seed, spawn_key=(i, b))), where i is
    the tensor's index in the registry. The blocks are drawn on up to one
    thread per usable CPU, and their size never depends on the thread
    count, so the bytes are the same at any count.
    """
    rng = np.random.default_rng(seed)
    params = {}
    blocks = []  # (seed sequence, values to fill, scale): drawn once all are known
    for i, (name, shape) in enumerate(parameter_shapes(cfg).items()):
        if name.endswith(".bias"):
            params[name] = np.zeros(shape, dtype=DTYPE)
            continue
        fan_in = math.prod(shape[:-1])
        scale = np.sqrt(2.0 / fan_in)
        if math.prod(shape) <= INIT_BLOCK:
            params[name] = rng.normal(0.0, scale, shape)
            continue
        params[name] = np.empty(shape, dtype=DTYPE)
        flat = params[name].reshape(-1)
        for b in range(0, flat.size, INIT_BLOCK):
            blocks.append((np.random.SeedSequence(seed, spawn_key=(i, b // INIT_BLOCK)),
                           flat[b:b + INIT_BLOCK], scale))
    count = _thread_count(len(blocks))
    _on_threads(_draw_blocks, [blocks[k::count] for k in range(count)])
    return NetworkGraph(cfg, params)


def _draw_blocks(blocks):
    """Fill each (seed sequence, values, scale) block with scaled standard normals."""
    for seeds, values, scale in blocks:
        np.random.default_rng(seeds).standard_normal(out=values)
        values *= scale


def _thread_count(parts: int) -> int:
    """One thread per usable CPU (the process's affinity mask), but at most
    one per part and at least one; one part or none asks for no CPU count."""
    return min(len(os.sched_getaffinity(0)), parts) if parts > 1 else 1


def _on_threads(work, parts):
    """Call work(part) for every part: the calling thread takes the first,
    one pool thread each of the others, and an exception in any reaches the
    caller. A single part starts no thread."""
    if len(parts) == 1:
        work(parts[0])
        return
    # imported here: the module costs 0.6 MiB of RSS that a process which
    # builds and loads no large network need not pay
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(len(parts) - 1) as pool:
        others = [pool.submit(work, part) for part in parts[1:]]
        work(parts[0])
        for future in others:
            future.result()


def _conv_forward(xs, ps, attrs, saved):
    """conv's forward step: a training conv that is lowered saves its rows."""
    rows = None
    if saved is not None:
        rows = saved["rows"] = layers.conv_rows(xs[0], ps[0].shape, attrs["stride"])
    return layers.conv_forward(xs[0], *ps, attrs["stride"], rows=rows)


def _lrn_forward(xs, ps, attrs, saved):
    """LRN's forward step: a training LRN saves its base."""
    base = None
    if saved is not None:
        base = saved["base"] = np.empty_like(xs[0])
    return layers.lrn_forward(xs[0], **attrs, base=base)


# {kind: (forward step, backward step)}. forward(xs, ps, attrs, saved)
# returns the node's output from its input tensors xs, its parameter arrays
# ps (in node.param_shapes order) and its attrs. saved is a dict for a node
# whose backward step will run, else None: conv puts its lowered rows there
# (None for a 1x1 kernel at stride 1, whose rows are its input) and LRN its
# base. backward(xs, ps, gs, need, attrs, y, g, saved), given the node's
# output y, its gradient g and the dict its forward filled, writes the
# gradients of ps into the arrays gs (same order; None for a frozen node,
# whose parameter gradients are computed into fresh arrays and dropped) and
# returns the gradients of xs: conv and fc compute xs[i]'s only where
# need[i] holds, and backward drops any other. Layers and parameter arrays
# are looked up at call time, so that patches and rebound arrays take effect.
# Every node's attrs are its layer's keywords: conv attrs conv_backward's,
# pool attrs maxpool's, LRN attrs (size, k, alpha, beta) lrn's. Every ReLU
# of the template reads a conv or fc that only it reads, never the batch or
# a flatten view, so it rectifies that tensor in place. Every g is read by
# its step alone (a split_channels view too), so ReLU masks it in place.
OPS = {
    "conv": (_conv_forward,
             lambda xs, ps, gs, need, attrs, y, g, saved: layers.conv_backward(
                 xs[0], ps[0], g, need_input_grad=need[0], out=gs, rows=saved["rows"],
                 **attrs)[:1]),
    "relu": (lambda xs, ps, attrs, saved: layers.relu(xs[0], out=xs[0]),
             lambda xs, ps, gs, need, attrs, y, g, saved: (
                 layers.relu_backward(xs[0], g, out=g),)),
    "maxpool": (lambda xs, ps, attrs, saved: layers.maxpool_forward(xs[0], **attrs),
                lambda xs, ps, gs, need, attrs, y, g, saved: (
                    layers.maxpool_backward(xs[0], y, g, **attrs),)),
    "lrn": (_lrn_forward,
            lambda xs, ps, gs, need, attrs, y, g, saved: (
                layers.lrn_backward(xs[0], g, **attrs, base=saved["base"]),)),
    "concat": (lambda xs, ps, attrs, saved: layers.concat_channels(xs),
               lambda xs, ps, gs, need, attrs, y, g, saved: layers.split_channels(
                   g, [x.shape[-1] for x in xs])),
    "flatten": (lambda xs, ps, attrs, saved: xs[0].reshape(xs[0].shape[0], -1),
                lambda xs, ps, gs, need, attrs, y, g, saved: (g.reshape(xs[0].shape),)),
    "fc": (lambda xs, ps, attrs, saved: layers.fc_forward(xs[0], *ps),
           lambda xs, ps, gs, need, attrs, y, g, saved: layers.fc_backward(
               xs[0], ps[0], g, need_input_grad=need[0], out=gs)[:1]),
}


class TrainingCache(dict):
    """The cache a training forward returns: "input" and every node name
    map to its tensor, and saved maps each node of net.backward_steps to
    the dict its forward step filled."""

    def __init__(self, saved):
        super().__init__()
        self.saved = saved


def forward(net: NetworkGraph, batch, inference=False):
    """Run the graph on a batch, returning (logits, activation cache).

    The cache (a TrainingCache) maps "input" and every node name to its
    tensor, and keeps what the forward step of each node whose backward
    step will run saved for it (net.backward_steps; none with all of them
    frozen): a lowered conv's rows (conv1's, 35 MiB at the paper's size
    and batch 4) and the LRN base. backward() needs the full cache and
    consumes it. With inference=True the cache is None and nothing is
    saved: each tensor is freed once the last node that reads it
    (net.dead_after) has run, so only live tensors are held. In both modes
    each ReLU rectifies its input in place, so a conv or fc and the ReLU
    that alone reads it share one tensor; the batch itself is never written.
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
    saved = {} if inference else {name: {} for name in net.backward_steps}
    tensors = TrainingCache(saved)
    tensors["input"] = x
    for node in net.nodes[1:]:
        xs = [tensors[name] for name in node.inputs]
        ps = [net.params[name] for name in node.param_shapes]
        tensors[node.name] = OPS[node.kind][0](xs, ps, node.attrs, saved.get(node.name))
        if inference:
            for name in net.dead_after[node.name]:
                del tensors[name]
    return tensors[net.output_name], None if inference else tensors


def backward(net: NetworkGraph, cache, grad_logits):
    """Whole-graph adjoint: net.grads, {param name: gradient} for every
    trainable parameter.

    The next backward on this net writes its gradients into the same
    arrays, so a caller that needs a gradient past that must copy it. Only
    the steps a trainable parameter needs run (net.backward_steps): a
    node's step runs if a trainable parameter lies at or upstream of its
    output, and asks for an input's gradient only if one lies at or upstream
    of that input (never the batch's). Each step takes what its forward
    step saved: conv1 multiplies the rows forward lowered, and LRN reuses
    its base. A cache whose forward saved for other steps is refused. With
    only conv1 frozen, conv1, relu1, pool1 and norm1 run no step. Consumes
    the cache: every node's output and saved arrays are dropped on its
    turn, and only "input", the caller's batch, is left.
    """
    if cache is None:
        raise ValueError("no activation cache: an inference forward frees each "
                         "tensor after its last reader; backward needs "
                         "forward(net, batch) with inference=False")
    if cache.keys() == {"input"}:
        raise ValueError("the activation cache was consumed by an earlier backward; "
                         "run forward again")
    if (not isinstance(cache, TrainingCache) or "input" not in cache
            or net.output_name not in cache or cache.saved.keys() != net.backward_steps):
        raise ValueError("cache does not come from a matching forward pass")
    grad_logits = np.asarray(grad_logits, dtype=DTYPE)
    if grad_logits.shape != cache[net.output_name].shape:
        raise ValueError(f"grad_logits shape {grad_logits.shape} does not match "
                         f"logits {cache[net.output_name].shape}")
    steps = cache.saved  # {node whose step runs: what its forward step saved}
    node_grads = {net.output_name: grad_logits}
    for node in reversed(net.nodes[1:]):
        y = cache.pop(node.name)
        saved = steps.pop(node.name, None)
        if saved is None:
            continue
        # every stepping node is read by a stepping node, or is the output
        g = node_grads.pop(node.name)
        gs = None
        if node.param_shapes and node.name not in net.frozen:
            for name, shape in node.param_shapes.items():
                if name not in net.grads:
                    net.grads[name] = np.empty(shape, dtype=DTYPE)
            gs = [net.grads[name] for name in node.param_shapes]
        xs = [cache[name] for name in node.inputs]
        ps = [net.params[name] for name in node.param_shapes]
        need = [name in net.backward_steps for name in node.inputs]
        grads = OPS[node.kind][1](xs, ps, gs, need, node.attrs, y, g, saved)
        for name, gi, wanted in zip(node.inputs, grads, need):
            if wanted:
                node_grads[name] = node_grads[name] + gi if name in node_grads else gi
    return net.grads


@functools.cache
def field_types(cls) -> types.MappingProxyType:
    """Read-only {field name: type} of a config dataclass, in field order."""
    hints = typing.get_type_hints(cls)
    return types.MappingProxyType({f.name: hints[f.name] for f in fields(cls)})


def format_value(kind, value) -> str:
    """Text form of a config value; parse_value(kind, ...) reads it back."""
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


def _config_block(cfg: LfhnConfig, frozen) -> bytes:
    """The checkpoint's config block: a key=value line per field, then frozen."""
    lines = [f"{key}={format_value(kind, getattr(cfg, key))}"
             for key, kind in field_types(LfhnConfig).items()]
    lines.append(f"frozen={','.join(sorted(frozen))}")
    return "\n".join(lines).encode("utf-8")


def _record_header(name: str, shape) -> bytes:
    """A record's bytes before its data: u32 name length, UTF-8 name, u32 rank and extents."""
    encoded = name.encode("utf-8")
    try:
        return struct.pack(f"<I{len(encoded)}sI{len(shape)}I",
                           len(encoded), encoded, len(shape), *shape)
    except struct.error as err:
        raise CheckpointError(f"{name}: shape {shape} does not fit a record's "
                              "u32 fields") from err


def _config_from_block(blob: bytes):
    """(config, frozen set) of a config block, which must be _config_block's bytes for them."""
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as err:
        raise CheckpointError(f"config is not UTF-8 text: {err}") from err
    # {key: value} of the first line of each key; a repeated key shows as an extra line
    values = dict(line.partition("=")[::2] for line in reversed(text.split("\n")))
    kwargs = {}
    for key, kind in field_types(LfhnConfig).items():
        if key in values:
            try:
                kwargs[key] = parse_value(kind, values[key])
            except ValueError as err:
                raise CheckpointError(f"invalid config block: {key}: {err}") from err
    try:
        cfg = LfhnConfig(**kwargs)
    except ValueError as err:
        raise CheckpointError(f"invalid config block: {err}") from err
    frozen = set(filter(None, values.get("frozen", "").split(",")))
    got, want = text.split("\n"), _config_block(cfg, frozen).decode("utf-8").split("\n")
    for n in range(max(len(got), len(want))):
        if got[n:n + 1] != want[n:n + 1]:
            raise CheckpointError(f"invalid config block: line {n + 1} reads {got[n:n + 1]}, "
                                  f"but saving its config writes {want[n:n + 1]}")
    return cfg, frozen


def save_checkpoint(net: NetworkGraph, path):
    """Write config plus every parameter tensor; the round trip is bit-exact.

    The records go to "<path>.tmp", which replaces path only once it is
    complete, so a failed save leaves an earlier checkpoint at path intact.
    """
    block = _config_block(net.config, net.frozen)
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC + struct.pack("<2I", CHECKPOINT_VERSION, len(block)))
            fh.write(block)
            fh.write(struct.pack("<I", len(net.params)))
            for name, arr in net.params.items():
                fh.write(_record_header(name, arr.shape))
                fh.write(np.ascontiguousarray(arr, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> NetworkGraph:
    """Rebuild a saved network.

    Only the config text and the float64 data are read as values. Every
    other byte must be what save_checkpoint writes for the config the file
    holds, so a file that loads re-saves to its own bytes.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def left(n, what):
            # n, refused before it is read or allocated if it runs past the end of the file
            if n > size - fh.tell():
                raise CheckpointError(f"truncated checkpoint while reading {what}")
            return n

        if fh.read(left(4, "magic")) != CHECKPOINT_MAGIC:
            raise CheckpointError("bad magic bytes: not a checkpoint file")
        version = int.from_bytes(fh.read(left(4, "version")), "little")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version} "
                                  f"(this build reads version {CHECKPOINT_VERSION})")
        config_len = int.from_bytes(fh.read(left(4, "config length")), "little")
        cfg, frozen = _config_from_block(fh.read(left(config_len, "config")))
        try:  # the net refuses a frozen name that is not a node with parameters
            net = NetworkGraph(cfg, {}, frozen)
        except ValueError as err:
            raise CheckpointError(f"invalid config block: {err}") from err
        expected = parameter_shapes(cfg)
        if fh.read(left(4, "parameter count")) != struct.pack("<I", len(expected)):
            raise CheckpointError(f"parameter count is not the {len(expected)} "
                                  "the config implies")
        records = []  # (file offset, byte view of the array, name): read once all are known
        for name, shape in expected.items():
            header = _record_header(name, shape)
            if fh.read(left(len(header), name)) != header:
                raise CheckpointError(f"record header is not that of {name} {shape}, "
                                      "which the config implies")
            nbytes = left(8 * math.prod(shape), name)
            net.params[name] = np.empty(shape, dtype="<f8")
            records.append((fh.tell(), memoryview(net.params[name]).cast("B"), name))
            fh.seek(nbytes, os.SEEK_CUR)
        if fh.read(1):
            raise CheckpointError("trailing bytes after the last parameter record")
        _read_records(fh.fileno(), records)
    return net


def _read_records(fd, records):
    """Fill every (file offset, byte view, name) record from fd.

    The records' data, taken end to end, is cut into contiguous spans of
    near-equal size, one per usable CPU but at most one per READ_SPAN_BYTES
    of data; a span may cross record boundaries. The calling thread
    reads the first span and pool threads the others, so a single span
    starts no thread. All read with positional reads on the one descriptor,
    so the bytes are those of a serial read of this file even if another
    file is renamed onto its path meanwhile.
    """
    total = sum(len(view) for _, view, _ in records)
    count = _thread_count(total // READ_SPAN_BYTES)
    spans = [[] for _ in range(count)]
    start = 0  # the record's first byte within the data taken end to end
    for offset, view, name in records:
        for k, span in enumerate(spans):
            a = max(total * k // count - start, 0)
            b = min(total * (k + 1) // count - start, len(view))
            if a < b:
                span.append((offset + a, view[a:b], name))
        start += len(view)
    _on_threads(functools.partial(_read_span, fd), spans)


def _read_span(fd, span):
    """Read each (file offset, byte view, name) piece of a span in full."""
    for offset, view, name in span:
        while view:
            n = os.preadv(fd, [view], offset)
            if n == 0:
                raise CheckpointError(f"truncated checkpoint while reading {name}")
            offset, view = offset + n, view[n:]
