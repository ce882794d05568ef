"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of lfhn.tensor, lfhn.layers, lfhn.graph,
lfhn.train, lfhn.evaluate and lfhn.data for the traced run only and restores
them afterwards; the program itself is not changed. Spans are kept in memory
and written out when the run ends.

Layer calls made directly inside graph.forward or graph.backward are
attributed to the net.nodes entry whose turn it is. A call that does not fit
that node's kind, or a pass that leaves nodes without a call, raises
TraceError instead of being misattributed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import deque
from dataclasses import dataclass

# layer functions each graph node kind may call, per pass direction. Nodes of
# the NO_CALL_KINDS make no layer call; any other kind missing here is an error.
NO_CALL_KINDS = {"input", "flatten"}
FORWARD_CALLS = {
    "conv": {"conv_forward", "conv1x1_forward"},
    "relu": {"relu"},
    "maxpool": {"maxpool_forward"},
    "lrn": {"lrn_forward"},
    "concat": {"concat_channels"},
    "fc": {"fc_forward"},
}
BACKWARD_CALLS = {
    "conv": {"conv_backward"},
    "relu": {"relu_backward"},
    "maxpool": {"maxpool_backward"},
    "lrn": {"lrn_backward"},
    "concat": {"split_channels"},
    "fc": {"fc_backward"},
}
NODE_CALLS = set().union(*FORWARD_CALLS.values(), *BACKWARD_CALLS.values())
OTHER_LAYER_CALLS = {"softmax_xent"}

# shares of time that wrapped calls must cover; see Tracer.check
MIN_TIMED_COVER = 0.99
MIN_PASS_COVER = 0.9

WRAPPED = {
    "tensor": ("im2col", "col2im"),
    "train": ("train", "sgd_step", "augment"),
    "evaluate": ("evaluate", "predict"),
    "data": ("generate_corpus", "load_corpus", "render", "write_image", "read_image"),
    "graph": ("save_checkpoint", "load_checkpoint"),
}


# op id of the root span around the traced set-up
SETUP_OP = "setup"


class TraceError(RuntimeError):
    """Layer calls did not line up with the graph's node list."""


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    nbytes: int = 0
    child_time: float = 0.0  # summed duration of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _array_bytes(result) -> int:
    first = result[0] if isinstance(result, tuple) else result
    return int(getattr(first, "nbytes", 0))


# bytes recorded per call: computed from the result array, or the file size
MEASURED_BYTES = {
    "tensor.im2col": lambda args, result: _array_bytes(result),
    "data.write_image": lambda args, result: os.path.getsize(args[0]),
    "data.read_image": lambda args, result: os.path.getsize(args[0]),
    "graph.save_checkpoint": lambda args, result: os.path.getsize(args[1]),
}


class Tracer:
    """Records nested spans around the wrapped lfhn functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._turns: dict[int, tuple[deque, dict, str]] = {}
        self._op: int | None = None
        self._undo: list = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index):
        span = self.spans[index]
        span.end = time.perf_counter()
        if self._stack.pop() != index:
            raise TraceError(f"span {span.name!r} closed out of order")
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    @contextlib.contextmanager
    def operation(self, op_id):
        """Root span of one benchmark operation, or of the set-up (SETUP_OP)."""
        self._op = op_id
        index = self._open("op")
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    # -- wrapping ---------------------------------------------------------

    def install(self, lfhn_modules):
        """Wrap the public functions of the given {name: module} mapping."""
        for mod_name, attrs in WRAPPED.items():
            module = lfhn_modules[mod_name]
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                self._patch(module, attr, self._plain(name, MEASURED_BYTES.get(name)))
        graph = lfhn_modules["graph"]
        self._patch(graph, "forward", self._graph_pass("graph.forward", FORWARD_CALLS, "fwd"))
        self._patch(graph, "backward", self._graph_pass("graph.backward", BACKWARD_CALLS, "bwd"))
        layers = lfhn_modules["layers"]
        for attr in sorted(NODE_CALLS | OTHER_LAYER_CALLS):
            if hasattr(layers, attr):
                self._patch(layers, attr, self._layer(attr))

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self, lfhn_modules):
        self.install(lfhn_modules)
        try:
            yield
        finally:
            self.uninstall()

    def _patch(self, module, attr, make_wrapper):
        original = getattr(module, attr)
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))
        self._undo.append((module, attr, original))

    def _plain(self, name, measure):
        def make(fn):
            def wrapper(*args, **kwargs):
                index = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index)
                if measure is not None:
                    self.spans[index].nbytes = measure(args, result)
                return result
            return wrapper
        return make

    def _graph_pass(self, name, calls, direction):
        def make(fn):
            def wrapper(net, *args, **kwargs):
                nodes = [n for n in net.nodes if n.kind not in NO_CALL_KINDS]
                if direction == "bwd":
                    nodes.reverse()
                index = self._open(name)
                self._turns[index] = (deque(nodes), calls, direction)
                try:
                    result = fn(net, *args, **kwargs)
                finally:
                    turns = self._turns.pop(index)[0]
                    self._close(index)
                if turns:
                    raise TraceError(f"{name} made no layer call for node(s) "
                                     f"{[n.name for n in turns]}")
                return result
            return wrapper
        return make

    def _layer(self, attr):
        def make(fn):
            def wrapper(*args, **kwargs):
                name = f"layers.{attr}"
                pass_state = self._turns.get(self._stack[-1]) if self._stack else None
                if pass_state is not None:
                    turns, calls, direction = pass_state
                    if not turns:
                        raise TraceError(f"layers.{attr} called after every node "
                                         f"of the {direction} pass had its turn")
                    node = turns.popleft()
                    if attr not in calls.get(node.kind, ()):
                        raise TraceError(f"layers.{attr} called on the turn of node "
                                         f"{node.name!r} (kind {node.kind!r})")
                    name = f"layers.{node.name}.{direction}"
                index = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index)
                if pass_state is not None and direction == "fwd":
                    self.spans[index].nbytes = _array_bytes(result)
                return result
            return wrapper
        return make

    # -- output -----------------------------------------------------------

    def check(self, timed_s, tolerance_s=1e-6):
        """Check the spans of the traced operations; raise TraceError on a problem.

        timed_s maps each op id to the seconds the workload timed in it.

        - Self times add up to the root span's duration. This holds by the
          definition of self time, so it checks the span bookkeeping only.
        - The timed sides call nothing but wrapped functions, so the spans
          directly under an op's root cover at least MIN_TIMED_COVER of the
          timed seconds. A wrapper that went missing leaves the gap in the root.
        - Layer spans cover at least MIN_PASS_COVER of all graph.forward and
          graph.backward time. A layer call that escaped its wrapper would stay
          in the pass's own time. That each pass makes exactly one layer call
          per node is enforced while the pass runs.
        - Every NODE_CALLS call was made inside a graph pass and so was
          attributed to a node.
        """
        unattributed = {f"layers.{attr}" for attr in NODE_CALLS}
        totals, roots, covered = {}, {}, {}
        pass_s = {"graph.forward": 0.0, "graph.backward": 0.0}
        pass_self_s = dict.fromkeys(pass_s, 0.0)
        for span in self.spans:
            totals[span.op] = totals.get(span.op, 0.0) + span.self_time
            if span.name == "op":
                roots[span.op] = span.duration
            elif span.parent is not None and self.spans[span.parent].name == "op":
                covered[span.op] = covered.get(span.op, 0.0) + span.duration
            if span.name in pass_s:
                pass_s[span.name] += span.duration
                pass_self_s[span.name] += span.self_time
            if span.name in unattributed:
                raise TraceError(f"{span.name} was called outside graph.forward/backward "
                                 "and could not be attributed to a node")
        for op, duration in roots.items():
            if abs(totals[op] - duration) > tolerance_s:
                raise TraceError(f"operation {op}: self times sum to {totals[op]!r} s "
                                 f"but the root span lasted {duration!r} s")
        for op, seconds in timed_s.items():
            if covered.get(op, 0.0) < MIN_TIMED_COVER * seconds:
                raise TraceError(f"operation {op}: wrapped calls cover "
                                 f"{covered.get(op, 0.0):.4f} s of the {seconds:.4f} s timed")
        for name, total in pass_s.items():
            if total and pass_self_s[name] > (1.0 - MIN_PASS_COVER) * total:
                raise TraceError(f"layer calls cover only {1.0 - pass_self_s[name] / total:.1%} "
                                 f"of {name} time")

    def write(self, path):
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "op": s.op, "parent": s.parent,
                                     "start": s.start - origin, "end": s.end - origin,
                                     "nbytes": s.nbytes}) + "\n")

    def summary(self, setup):
        """{span name: (calls, total self seconds, total bytes)} over the spans
        of the traced set-up (setup=True) or of the traced operations."""
        out = {}
        for s in self.spans:
            if (s.op == SETUP_OP) == setup:
                calls, self_s, nbytes = out.get(s.name, (0, 0.0, 0))
                out[s.name] = (calls + 1, self_s + s.self_time, nbytes + s.nbytes)
        return out

    def count_children(self, parent_name, child_name) -> int:
        """Number of child_name spans of the traced operations whose direct
        parent is a parent_name span."""
        return sum(1 for s in self.spans if s.name == child_name and s.op != SETUP_OP
                   and s.parent is not None and self.spans[s.parent].name == parent_name)
