"""The traced benchmark run (perfbench/run.py --trace 1) keeps working.

perfbench/tracing.py attributes every layer call inside graph.forward and
graph.backward to the node whose turn it is and raises TraceError on a
mismatch. Running a forward/backward, a training step and an evaluation
under its tracer here makes a graph change that would break the traced run
fail in pytest.
"""

import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

from lfhn import data, evaluate, graph, layers, tensor, train

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_op_kind_is_known_to_the_tracer(monkeypatch):
    # a kind missing from the tracer's call lists fails every traced run
    tracing = _load_tracing(monkeypatch)
    calling = set(graph.OPS) - tracing.NO_CALL_KINDS
    assert calling == set(tracing.FORWARD_CALLS) == set(tracing.BACKWARD_CALLS)


def test_graph_passes_and_training_step_satisfy_the_tracer(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    modules = {"data": data, "evaluate": evaluate, "graph": graph, "layers": layers,
               "tensor": tensor, "train": train}
    # desk-sized: at the tiny config the passes' own bookkeeping takes more
    # than the tenth of their time that check() allows
    net = graph.build_lfhn(graph.desk_config(10), seed=3)
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(32, 67, 67, 1))
    labels = rng.integers(0, 10, size=32)
    samples = [data.LabeledSample(image, int(label), 0, 0) for image, label in zip(x, labels)]
    graph.forward(net, x)  # first touch, untraced, as the benchmark's set-up does
    tracer = tracing.Tracer()
    timed = 0.0
    with tracer.installed(modules), tracer.operation(0):
        t0 = time.perf_counter()
        logits, cache = graph.forward(net, x)
        timed += time.perf_counter() - t0
        _, grad_logits = layers.softmax_xent(logits, labels)
        t0 = time.perf_counter()
        graph.backward(net, cache, grad_logits)
        timed += time.perf_counter() - t0
        t0 = time.perf_counter()
        train.train(net, samples, train.TrainConfig(batch_size=32, epochs=1))
        timed += time.perf_counter() - t0
        t0 = time.perf_counter()
        evaluate.evaluate(net, samples)  # desk-train's read side
        timed += time.perf_counter() - t0
    tracer.check({0: timed})
