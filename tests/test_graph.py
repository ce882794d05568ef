import collections
import os
import struct
import subprocess
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lfhn import evaluate, graph, layers, tensor, train
from lfhn.graph import CheckpointError, LfhnConfig

from oracles import walk_graph, max_rel_err


def test_shape_trace_default_reproduces_published_dims():
    trace = dict(graph.shape_trace(LfhnConfig()))
    assert trace["input"] == (227, 227, 3)
    assert trace["conv1"] == (55, 55, 96)
    assert trace["pool1"] == (27, 27, 96)
    assert trace["norm1"] == (27, 27, 96)
    assert trace["conv2"] == (27, 27, 200)
    assert trace["conv3"] == (27, 27, 400)
    assert trace["conv4"] == (27, 27, 300)
    assert trace["concat"] == (27, 27, 700)
    assert trace["conv5"] == (27, 27, 500)
    assert trace["flatten"] == (27 * 27 * 500,)
    assert trace["fc6"] == (512,)
    assert trace["fc7"] == (337,)


def test_shape_trace_small_input():
    cfg = replace(LfhnConfig(), input_height=67, input_width=67)
    trace = dict(graph.shape_trace(cfg))
    assert trace["conv1"] == (15, 15, 96)
    assert trace["pool1"] == (7, 7, 96)


def test_shape_trace_names_failing_node():
    # a config exists only if it tiles, so the constructor names the node
    with pytest.raises(ValueError, match="conv1: "):
        replace(LfhnConfig(), input_height=8, input_width=8)
    # conv1 maps 231 rows to 56, which pool1's 3x3/stride-2 window does not tile
    with pytest.raises(ValueError, match="pool1: "):
        replace(LfhnConfig(), input_height=231)


@pytest.mark.parametrize("cfg", [graph.tiny_config(), graph.desk_config(10), LfhnConfig(),
                                 replace(graph.tiny_config(), lrn_size=1, lrn_alpha=0.0)],
                         ids=["tiny", "desk", "paper", "tiny-lrn-1"])
def test_norm1_attrs_are_the_configs_lrn_constants(cfg):
    (norm1,) = [node for node in graph.NetworkGraph(cfg, {}).nodes if node.name == "norm1"]
    assert norm1.attrs == dict(size=cfg.lrn_size, k=cfg.lrn_k, alpha=cfg.lrn_alpha,
                               beta=cfg.lrn_beta)


def test_config_refuses_bad_lrn_constants_naming_the_key():
    for key, bad in [("lrn_size", 0), ("lrn_k", 0.0), ("lrn_alpha", -1e-4), ("lrn_beta", 0.0)]:
        with pytest.raises(ValueError, match=f"^{key} must be "):
            LfhnConfig(**{key: bad})
    for bad in (np.nan, np.inf, -np.inf):
        for key in ("lrn_k", "lrn_alpha", "lrn_beta"):
            with pytest.raises(ValueError, match=f"^{key} must be finite"):
                LfhnConfig(**{key: bad})
    assert LfhnConfig(lrn_alpha=0.0).lrn_alpha == 0.0  # the layer then only scales


def test_parameter_count_closed_form():
    # hand-summed: kernels + biases of the five convs plus the two fc layers
    expected = (
        (11 * 11 * 3 * 96 + 96)
        + (96 * 200 + 200)
        + (200 * 400 + 400)
        + (96 * 300 + 300)
        + (700 * 500 + 500)
        + (27 * 27 * 500 * 512 + 512)
        + (512 * 337 + 337)
    )
    shapes = graph.parameter_shapes(LfhnConfig(num_classes=337))
    assert sum(int(np.prod(s)) for s in shapes.values()) == expected


# 115x115 at the paper's root kernel and stride, with narrow widths: conv1
# lowers 27x27 windows per image, more rows than at the desk size
CONFIGS = {
    "tiny": graph.tiny_config(),
    "desk": graph.desk_config(10),
    "single-stream": replace(graph.tiny_config(), streams=((4,),), post_concat_channels=3),
    "115x115": LfhnConfig(input_height=115, input_width=115, root_channels=8,
                          streams=((8, 6), (5,)), post_concat_channels=4, fc_hidden=8,
                          num_classes=5),
}


@pytest.mark.parametrize("config", CONFIGS)
def test_recorded_shapes_match_activations(config):
    cfg = CONFIGS[config]
    trace = graph.shape_trace(cfg)
    net = graph.build_lfhn(cfg, seed=0)
    x = np.random.default_rng(0).uniform(size=(1,) + dict(trace)["input"])
    _, cache = graph.forward(net, x)
    assert [(name, cache[name].shape[1:]) for name, _ in trace] == trace
    assert {name: p.shape for name, p in net.params.items()} == graph.parameter_shapes(cfg)


def test_two_parallel_branches_leave_the_norm_node():
    net = graph.build_lfhn(graph.tiny_config(), seed=0)
    consumers = [n.name for n in net.nodes if n.inputs == ("norm1",)]
    assert consumers == ["conv2", "conv4"]
    concat = next(n for n in net.nodes if n.name == "concat")
    assert concat.inputs == ("relu3", "relu4")


def test_single_stream_config_is_valid():
    cfg = replace(graph.tiny_config(), streams=((4,),), post_concat_channels=3)
    net = graph.build_lfhn(cfg, seed=0)
    x = np.random.default_rng(0).uniform(size=(1, 8, 8, 3))
    logits, _ = graph.forward(net, x)
    assert logits.shape == (1, 3)


def test_invalid_widths_rejected():
    with pytest.raises(ValueError):
        LfhnConfig(streams=())
    with pytest.raises(ValueError, match=r"^streams: stream 1 widths must be >= 1, got 0$"):
        LfhnConfig(streams=((0,),))


def test_forward_zero_params_gives_uniform_softmax():
    net = graph.build_lfhn(graph.tiny_config(), seed=0)
    for name in net.params:
        net.params[name] = np.zeros_like(net.params[name])
    logits, _ = graph.forward(net, np.zeros((2, 8, 8, 3)))
    assert not logits.any()
    loss, _ = layers.softmax_xent(logits, [0, 2])
    assert loss == np.log(3.0)


def test_forward_batch_independence():
    net = graph.build_lfhn(graph.tiny_config(), seed=1)
    sample = np.random.default_rng(2).uniform(size=(8, 8, 3))
    logits, _ = graph.forward(net, np.stack([sample] * 4))
    for row in range(1, 4):
        assert np.array_equal(logits[0], logits[row])


def test_forward_rejects_wrong_input_shape():
    net = graph.build_lfhn(graph.tiny_config(), seed=0)
    with pytest.raises(ValueError, match="batch shape"):
        graph.forward(net, np.zeros((1, 9, 8, 3)))


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_forward_rejects_unscaled_integer_batches(dtype):
    net = graph.build_lfhn(graph.tiny_config(), seed=0)
    with pytest.raises(ValueError, match=np.dtype(dtype).name):
        graph.forward(net, np.zeros((1, 8, 8, 3), dtype=dtype))


def test_float32_batch_gives_float64_logits_cache_and_gradients():
    # the layers compute in the dtype they are handed; forward and backward fix it
    net = graph.build_lfhn(graph.tiny_config(), seed=24)
    x = np.random.default_rng(25).uniform(size=(2, 8, 8, 3)).astype(np.float32)
    float64 = np.dtype(np.float64)
    assert graph.forward(net, x, inference=True)[0].dtype == float64
    logits, cache = graph.forward(net, x)
    assert {t.dtype for t in cache.values()} == {float64}
    _, grad_logits = layers.softmax_xent(logits, [0, 2])
    grads = graph.backward(net, cache, grad_logits.astype(np.float32))
    assert grads and {g.dtype for g in grads.values()} == {float64}


def test_forward_matches_independent_graph_walk():
    net = graph.build_lfhn(graph.tiny_config(), seed=3)
    train.randomize_biases(net, seed=3)
    x = np.random.default_rng(4).uniform(size=(2, 8, 8, 3))
    logits, _ = graph.forward(net, x)
    assert max_rel_err(logits, walk_graph(net, x)) < 1e-10


def test_forward_deterministic_across_rebuilds():
    x = np.random.default_rng(5).uniform(size=(2, 8, 8, 3))
    a, _ = graph.forward(graph.build_lfhn(graph.tiny_config(), seed=6), x)
    b, _ = graph.forward(graph.build_lfhn(graph.tiny_config(), seed=6), x)
    assert np.array_equal(a, b)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("config", CONFIGS)
def test_inference_forward_gives_the_training_logits_bit_for_bit(config, batch):
    cfg = CONFIGS[config]
    net = graph.build_lfhn(cfg, seed=1)
    train.randomize_biases(net, seed=1)
    x = np.random.default_rng(batch).uniform(
        size=(batch, cfg.input_height, cfg.input_width, cfg.input_channels))
    logits, cache = graph.forward(net, x, inference=True)
    assert cache is None
    assert _same_bits(logits, graph.forward(net, x)[0])


def test_inference_logits_are_bit_equal_in_a_single_blas_thread():
    # --threads 1 promises determinism, so check the same equality there
    tests = os.path.dirname(os.path.abspath(__file__))
    script = f"""
import sys
sys.path.insert(0, {tests!r})
from test_graph import CONFIGS, test_inference_forward_gives_the_training_logits_bit_for_bit
for config in CONFIGS:
    test_inference_forward_gives_the_training_logits_bit_for_bit(config, 5)
print("bit-equal")
"""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    src = os.path.join(os.path.dirname(tests), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["bit-equal"]


def test_inference_forward_drops_each_tensor_after_its_last_reader(monkeypatch):
    # weak references to every ReLU output; at fc7, the last node, only
    # relu6 (fc7's input) may still be alive in an inference forward
    net = graph.build_lfhn(graph.tiny_config(), seed=2)
    x = np.random.default_rng(3).uniform(size=(2, 8, 8, 3))
    relu, fc_forward = layers.relu, layers.fc_forward
    outputs, alive_at_fc = [], []

    def recording_relu(*args, **kwargs):
        out = relu(*args, **kwargs)
        outputs.append(weakref.ref(out))
        return out

    def counting_fc(*args):
        alive_at_fc.append(sum(ref() is not None for ref in outputs))
        return fc_forward(*args)

    monkeypatch.setattr(layers, "relu", recording_relu)
    monkeypatch.setattr(layers, "fc_forward", counting_fc)
    graph.forward(net, x, inference=True)
    assert len(outputs) == 6 and alive_at_fc[-1] == 1
    outputs.clear()
    alive_at_fc.clear()
    graph.forward(net, x)
    assert alive_at_fc[-1] == 6  # the training cache keeps every one


def test_liveness_frees_norm1_after_the_last_stream_reads_it():
    net = graph.build_lfhn(graph.desk_config(10), seed=0)
    # conv2 and conv4 open the two streams; both read norm1
    assert "norm1" in net.dead_after["conv4"]
    assert "norm1" not in net.dead_after["conv2"]
    died = [name for names in net.dead_after.values() for name in names]
    assert sorted(died) == sorted(n.name for n in net.nodes[:-1])


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kernel=st.integers(1, 3), stride=st.integers(1, 3),
       pooled=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       channels=st.sampled_from([1, 3]), widths=st.tuples(*[st.integers(1, 4)] * 4),
       streams=st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=3),
                        min_size=1, max_size=3),
       lrn_size=st.sampled_from([1, 3, 5]))
def test_any_config_that_tiles_traces_infers_and_saves_consistently(
        tmp_path, kernel, stride, pooled, channels, widths, streams, lrn_size):
    """Over root kernels and strides 1-3, 1-3 streams of 1-3 convs, widths 1-4
    and LRN sizes 1, 3 and 5: the node list keeps the
    template's invariants, the training forward's shapes are shape_trace's,
    the inference logits are the training ones bit for bit, a loaded
    checkpoint saves to the bytes it was loaded from, and every parameter's
    gradient agrees with central differences."""
    # pool1's 3x3/stride-2 window tiles 2p+1 rows, which conv1 makes from this many
    extents = [2 * p * stride + kernel for p in pooled]
    root, mixer, hidden, classes = widths
    cfg = LfhnConfig(input_height=extents[0], input_width=extents[1], input_channels=channels,
                     root_kernel=kernel, root_channels=root, root_stride=stride,
                     streams=tuple(map(tuple, streams)), post_concat_channels=mixer,
                     fc_hidden=hidden, num_classes=classes, lrn_size=lrn_size)
    net = graph.build_lfhn(cfg, seed=0)
    train.randomize_biases(net, seed=0)
    # the template's invariants, which NetworkGraph and the OPS steps rely on
    # without checking: names are unique, every input precedes its reader,
    # every kind has a step, and every ReLU may rectify its input in place,
    # since that is a conv or fc it alone reads (never the batch or a view)
    position = {node.name: i for i, node in enumerate(net.nodes)}
    assert len(position) == len(net.nodes) and net.nodes[0].kind == "input"
    kinds = {node.name: node.kind for node in net.nodes}
    readers = collections.Counter(dep for node in net.nodes for dep in node.inputs)
    for i, node in enumerate(net.nodes[1:], start=1):
        assert node.kind in graph.OPS
        assert all(position[dep] < i for dep in node.inputs)
        if node.kind == "relu":
            (dep,) = node.inputs
            assert kinds[dep] in ("conv", "fc") and readers[dep] == 1, node.name
    trace = graph.shape_trace(cfg)
    x = np.random.default_rng(0).uniform(size=(2,) + dict(trace)["input"])
    inferred, _ = graph.forward(net, x, inference=True)
    logits, cache = graph.forward(net, x)
    assert [(name, cache[name].shape[1:]) for name, _ in trace] == trace
    assert _same_bits(inferred, logits)
    graph.save_checkpoint(net, tmp_path / "a.lfhn")
    graph.save_checkpoint(graph.load_checkpoint(tmp_path / "a.lfhn"), tmp_path / "b.lfhn")
    assert (tmp_path / "a.lfhn").read_bytes() == (tmp_path / "b.lfhn").read_bytes()
    # the steps pair gradients with parameter names by position
    report = train.grad_check(net, x, np.arange(2) % classes, max_per_tensor=4, seed=0)
    assert {c.name for c in report.checks} == set(net.params)
    assert report.passed(1e-5), "\n".join(report.format_lines())


def test_backward_refuses_an_inference_result():
    net = graph.build_lfhn(graph.tiny_config(), seed=11)
    logits, cache = graph.forward(net, np.zeros((1, 8, 8, 3)), inference=True)
    with pytest.raises(ValueError, match="inference forward"):
        graph.backward(net, cache, np.zeros_like(logits))


def _step_bytes(net, x, labels):
    """Inference and training logits, gradients and parameters after one SGD
    step, as bytes, computed on a copy of net's parameters."""
    net = graph.NetworkGraph(net.config, {k: v.copy() for k, v in net.params.items()},
                             net.frozen)
    inference = graph.forward(net, x, inference=True)[0]
    logits, cache = graph.forward(net, x)
    _, grad_logits = layers.softmax_xent(logits, labels)
    grads = graph.backward(net, cache, grad_logits)
    grad_bytes = {k: g.tobytes() for k, g in grads.items()}
    train.sgd_step(net.params, grads, {}, 0.05, 0.9)
    return (inference.tobytes(), logits.tobytes(), grad_bytes,
            {k: p.tobytes() for k, p in net.params.items()})


@pytest.mark.parametrize("config", ["tiny", "desk"])
def test_relu_in_place_gives_the_copy_reference_bits(config, monkeypatch):
    net = graph.build_lfhn(CONFIGS[config], seed=25)
    train.randomize_biases(net, seed=25)
    cfg = net.config
    rng = np.random.default_rng(26)
    # signed inputs, so that a ReLU written over the batch would change it
    x = rng.normal(size=(4, cfg.input_height, cfg.input_width, cfg.input_channels))
    labels = rng.integers(0, cfg.num_classes, size=4)
    before = x.copy()
    got = _step_bytes(net, x, labels)
    relu = layers.relu
    monkeypatch.setattr(layers, "relu", lambda x, out=None: relu(x))
    assert got == _step_bytes(net, x, labels)
    assert np.array_equal(x, before)


def test_training_forward_keeps_one_tensor_per_conv_relu_pair():
    net = graph.build_lfhn(graph.desk_config(10), seed=27)
    x = np.random.default_rng(28).normal(size=(2, 67, 67, 1))
    before = x.copy()
    _, cache = graph.forward(net, x)
    for node in net.nodes:
        if node.kind == "relu":
            assert cache[node.name] is cache[node.inputs[0]], node.name
    assert cache["input"] is x and np.array_equal(x, before)


def test_backward_consumes_the_cache():
    net = graph.build_lfhn(graph.tiny_config(), seed=29)
    x = np.random.default_rng(30).uniform(size=(2, 8, 8, 3))
    logits, cache = graph.forward(net, x)
    _, grad_logits = layers.softmax_xent(logits, [0, 2])
    graph.backward(net, cache, grad_logits)
    assert cache.keys() == {"input"} and cache["input"] is x
    with pytest.raises(ValueError, match="cache was consumed by an earlier backward"):
        graph.backward(net, cache, grad_logits)


def test_training_cache_holds_node_outputs_and_backward_lowers_nothing(monkeypatch):
    net = graph.build_lfhn(graph.desk_config(10), seed=5)
    x = np.random.default_rng(6).uniform(size=(2, 67, 67, 1))
    logits, cache = graph.forward(net, x)
    assert cache.keys() == {node.name for node in net.nodes}  # "input" is the first node
    # conv1 and norm1 saved their arrays; a 1x1 conv's rows are its input
    assert cache.saved["conv1"]["rows"].shape == (2, 15 * 15, 11 * 11 * 1)
    assert cache.saved["norm1"]["base"].shape == cache["pool1"].shape
    assert cache.saved["conv2"] == {"rows": None}
    calls = []
    monkeypatch.setattr(tensor, "im2col", lambda *a, **k: calls.append(a[1:]))
    _, grad_logits = layers.softmax_xent(logits, [1, 7])
    grads = graph.backward(net, cache, grad_logits)
    assert calls == []  # conv1 multiplies the rows its forward lowered
    assert set(grads) == set(net.params)
    assert cache.keys() == {"input"} and cache.saved == {}


DESK_CONVS = ("conv1", "conv2", "conv3", "conv4", "conv5")


@pytest.mark.parametrize("frozen, saving", [
    ((), {"conv1", "norm1"}),
    (("conv1",), set()),
    (DESK_CONVS, set()),
], ids=["none", "conv1", "every-conv"])
def test_forward_saves_arrays_only_for_the_steps_backward_runs(monkeypatch, frozen, saving):
    net = graph.NetworkGraph(graph.desk_config(10),
                             graph.build_lfhn(graph.desk_config(10), seed=41).params, frozen)
    x = np.random.default_rng(42).uniform(size=(2, 67, 67, 1))
    names = {id(net.params[name]): name.partition(".")[0] for name in net.params}
    kept = {}
    conv_forward, lrn_forward = layers.conv_forward, layers.lrn_forward

    def conv(x, kernel, bias, stride=1, rows=None):
        kept[names[id(kernel)]] = rows
        return conv_forward(x, kernel, bias, stride, rows=rows)

    def lrn(x, base=None, **attrs):
        kept["norm1"] = base
        return lrn_forward(x, base=base, **attrs)

    monkeypatch.setattr(layers, "conv_forward", conv)
    monkeypatch.setattr(layers, "lrn_forward", lrn)
    graph.forward(net, x, inference=True)
    assert set(kept) == set(DESK_CONVS) | {"norm1"}
    assert all(array is None for array in kept.values())  # inference saves nothing
    kept.clear()
    logits, cache = graph.forward(net, x)
    assert {name for name, array in kept.items() if array is not None} == saving
    _, grad_logits = layers.softmax_xent(logits, [3, 8])
    graph.backward(net, cache, grad_logits)
    assert cache.keys() == {"input"} and cache.saved == {}


@pytest.mark.parametrize("forward_frozen, backward_frozen", [
    ((), ("conv1",)),
    (("conv1",), ()),
], ids=["none-then-conv1", "conv1-then-none"])
def test_backward_refuses_a_cache_from_a_net_with_another_frozen_set(forward_frozen,
                                                                    backward_frozen):
    params = graph.build_lfhn(graph.tiny_config(), seed=43).params
    x = np.random.default_rng(44).uniform(size=(2, 8, 8, 3))
    logits, cache = graph.forward(graph.NetworkGraph(graph.tiny_config(), params,
                                                     forward_frozen), x)
    net = graph.NetworkGraph(graph.tiny_config(), params, backward_frozen)
    _, grad_logits = layers.softmax_xent(logits, [0, 2])
    with pytest.raises(ValueError, match="does not come from a matching forward pass"):
        graph.backward(net, cache, grad_logits)
    assert net.grads == {}


@pytest.mark.parametrize("name", ["norm1", "conv99", "relu1", "flatten"])
def test_network_refuses_a_frozen_name_that_is_not_a_node_with_parameters(name):
    params = graph.build_lfhn(graph.tiny_config(), seed=45).params
    with pytest.raises(ValueError, match=rf"frozen \['{name}'\] are not nodes with parameters"):
        graph.NetworkGraph(graph.tiny_config(), params, {"conv1", name})


def test_network_frozen_set_cannot_change_after_the_build():
    net = graph.NetworkGraph(graph.tiny_config(),
                             graph.build_lfhn(graph.tiny_config(), seed=46).params, ["conv1"])
    assert net.frozen == {"conv1"} and not hasattr(net.frozen, "add")


def test_only_the_backward_pass_selects_pool_winners(monkeypatch):
    net = graph.build_lfhn(graph.desk_config(10), seed=5)
    x = np.random.default_rng(6).uniform(size=(2, 67, 67, 1))
    winners = layers.pool_winners

    def refuse(*args):
        raise AssertionError("inference selected pool winners")

    monkeypatch.setattr(layers, "pool_winners", refuse)
    assert evaluate.predict(net, x).shape == (2,)
    calls = []
    monkeypatch.setattr(layers, "pool_winners",
                        lambda *a: calls.append(a[2:]) or winners(*a))
    logits, cache = graph.forward(net, x)
    assert calls == []
    _, grad_logits = layers.softmax_xent(logits, [1, 7])
    graph.backward(net, cache, grad_logits)
    assert calls == [(n.attrs["window"], n.attrs["stride"])
                     for n in net.nodes if n.kind == "maxpool"]


def test_backward_zero_grad_logits():
    net = graph.build_lfhn(graph.tiny_config(), seed=7)
    x = np.random.default_rng(8).uniform(size=(1, 8, 8, 3))
    logits, cache = graph.forward(net, x)
    grads = graph.backward(net, cache, np.zeros_like(logits))
    assert grads and all(not g.any() for g in grads.values())


def test_backward_frozen_root_has_no_conv1_entries():
    net = graph.NetworkGraph(graph.tiny_config(),
                             graph.build_lfhn(graph.tiny_config(), seed=9).params, {"conv1"})
    x = np.random.default_rng(10).uniform(size=(1, 8, 8, 3))
    logits, cache = graph.forward(net, x)
    _, grad_logits = layers.softmax_xent(logits, [0])
    grads = graph.backward(net, cache, grad_logits)
    assert not any(name.startswith("conv1.") for name in grads)
    assert any(name.startswith("conv2.") for name in grads)


def _gradients(net, x, labels):
    logits, cache = graph.forward(net, x)
    _, grad_logits = layers.softmax_xent(logits, labels)
    return graph.backward(net, cache, grad_logits)


def test_frozen_root_runs_no_backward_step(monkeypatch):
    net = graph.build_lfhn(graph.desk_config(10), seed=31)
    train.randomize_biases(net, seed=31)
    rng = np.random.default_rng(32)
    x = rng.uniform(size=(4, 67, 67, 1))
    labels = rng.integers(0, 10, size=4)
    unfrozen = {name: g.copy() for name, g in _gradients(net, x, labels).items()}
    frozen = graph.NetworkGraph(net.config, net.params, {"conv1"})
    logits, cache = graph.forward(frozen, x)
    calls = []
    monkeypatch.setattr(tensor, "im2col", lambda *a, **k: calls.append(a[1:]))
    _, grad_logits = layers.softmax_xent(logits, labels)
    grads = graph.backward(frozen, cache, grad_logits)
    assert calls == [] and cache.keys() == {"input"}
    assert set(grads) == set(frozen.grads) == set(unfrozen) - {"conv1.kernel", "conv1.bias"}
    for name, g in grads.items():
        assert _same_bits(g, unfrozen[name]), name


# the layer function each node kind's backward step calls; flatten calls none
BACKWARD_LAYERS = {"conv": "conv_backward", "relu": "relu_backward",
                   "maxpool": "maxpool_backward", "lrn": "lrn_backward",
                   "concat": "split_channels", "fc": "fc_backward"}


@pytest.mark.parametrize("frozen, skipped, no_input_grad", [
    ((), (), ("conv1",)),
    (("conv1",), ("conv1", "relu1", "pool1", "norm1"), ("conv2", "conv4")),
    (DESK_CONVS, ("conv1", "relu1", "pool1", "norm1", "conv2", "relu2", "conv3", "relu3",
                  "conv4", "relu4", "concat", "conv5", "relu5", "flatten"), ("fc6",)),
], ids=["none", "conv1", "every-conv"])
def test_backward_runs_only_the_steps_a_trainable_parameter_needs(
        monkeypatch, frozen, skipped, no_input_grad):
    """The skipped nodes make no layer call, the no_input_grad ones return no
    input gradient, and every trainable gradient keeps the unfrozen bits."""
    net = graph.build_lfhn(graph.desk_config(10), seed=37)
    train.randomize_biases(net, seed=37)
    assert [n.name for n in net.nodes if n.kind == "conv"] == list(DESK_CONVS)
    rng = np.random.default_rng(38)
    x = rng.uniform(size=(4, 67, 67, 1))
    labels = rng.integers(0, 10, size=4)
    unfrozen = {name: g.copy() for name, g in _gradients(net, x, labels).items()}
    net = graph.NetworkGraph(net.config, net.params, frozen)
    logits, cache = graph.forward(net, x)
    _, grad_logits = layers.softmax_xent(logits, labels)
    calls = []

    def recording(name, step):
        def call(*args, **kwargs):
            result = step(*args, **kwargs)
            parts = name in ("conv_backward", "fc_backward")
            calls.append((name, parts and result[0] is None))
            return result
        return call

    for name in BACKWARD_LAYERS.values():
        monkeypatch.setattr(layers, name, recording(name, getattr(layers, name)))
    grads = graph.backward(net, cache, grad_logits)
    assert calls == [(BACKWARD_LAYERS[node.kind], node.name in no_input_grad)
                     for node in reversed(net.nodes[1:])
                     if node.name not in skipped and node.kind != "flatten"]
    assert cache.keys() == {"input"}
    assert set(grads) == {name for name in unfrozen if name.split(".")[0] not in frozen}
    for name, g in grads.items():
        assert _same_bits(g, unfrozen[name]), name


@pytest.mark.parametrize("frozen", [("conv1",), ("conv1", "conv2", "conv3", "conv4", "conv5")],
                         ids=["conv1", "every-conv"])
def test_grad_check_of_a_frozen_net_checks_exactly_its_trainable_tensors(frozen):
    net = graph.NetworkGraph(graph.tiny_config(),
                             graph.build_lfhn(graph.tiny_config(), seed=39).params, frozen)
    train.randomize_biases(net, seed=39)
    assert {n.name for n in net.nodes if n.kind == "conv"} >= set(frozen)
    rng = np.random.default_rng(40)
    x = rng.uniform(size=(2, 8, 8, 3))
    report = train.grad_check(net, x, rng.integers(0, 3, size=2), max_per_tensor=8, seed=40)
    assert sorted(c.name for c in report.checks) == sorted(
        name for name in net.params if name.split(".")[0] not in frozen)
    assert report.passed(1e-5), "\n".join(report.format_lines())


@pytest.mark.parametrize("config", ["tiny", "desk"])
def test_backward_reuses_the_nets_gradient_arrays(config):
    cfg = CONFIGS[config]
    net = graph.build_lfhn(cfg, seed=33)
    train.randomize_biases(net, seed=33)
    assert net.grads == {}
    rng = np.random.default_rng(34)
    returned = []
    for _ in range(2):
        x = rng.uniform(size=(3, cfg.input_height, cfg.input_width, cfg.input_channels))
        labels = rng.integers(0, cfg.num_classes, size=3)
        grads = _gradients(net, x, labels)
        assert grads.keys() == net.grads.keys() == net.params.keys()
        assert all(g is net.grads[name] for name, g in grads.items())
        twin = train.randomize_biases(graph.build_lfhn(cfg, seed=33), seed=33)
        for name, g in _gradients(twin, x, labels).items():
            assert _same_bits(grads[name], g), name
        returned.append(grads)
    first, second = returned
    assert first is second is net.grads


@pytest.mark.parametrize("config", ["tiny", "desk"])
def test_gradient_arrays_hold_the_allocating_layer_calls_bits(config, monkeypatch):
    cfg = CONFIGS[config]
    net = graph.build_lfhn(cfg, seed=35)
    train.randomize_biases(net, seed=35)
    rng = np.random.default_rng(36)
    x = rng.uniform(size=(3, cfg.input_height, cfg.input_width, cfg.input_channels))
    labels = rng.integers(0, cfg.num_classes, size=3)
    names = {id(net.params[name]): name.rpartition(".")[0] for name in net.params}
    allocated = {}

    def recording(step):
        def call(x, weight, grad_out, out=None, **kwargs):
            assert out is not None
            _, grad_weight, grad_bias = step(x, weight, grad_out, **kwargs)
            node = names[id(weight)]
            allocated[node + (".kernel" if weight.ndim == 4 else ".weight")] = grad_weight
            allocated[node + ".bias"] = grad_bias
            return step(x, weight, grad_out, out=out, **kwargs)
        return call

    monkeypatch.setattr(layers, "conv_backward", recording(layers.conv_backward))
    monkeypatch.setattr(layers, "fc_backward", recording(layers.fc_backward))
    for _ in range(2):  # the second pass writes into the first pass's arrays
        _gradients(net, x, labels)
    assert allocated.keys() == net.grads.keys()
    for name, g in net.grads.items():
        assert _same_bits(g, allocated[name]), name


def test_backward_requires_matching_cache():
    net = graph.build_lfhn(graph.tiny_config(), seed=11)
    with pytest.raises(ValueError, match="cache"):
        graph.backward(net, {}, np.zeros((1, 3)))


def test_gradient_reaches_both_streams():
    net = graph.build_lfhn(graph.tiny_config(), seed=12)
    train.randomize_biases(net, seed=12)
    rng = np.random.default_rng(13)
    x = rng.uniform(size=(4, 8, 8, 3))
    logits, cache = graph.forward(net, x)
    _, grad_logits = layers.softmax_xent(logits, rng.integers(0, 3, size=4))
    grads = graph.backward(net, cache, grad_logits)
    assert set(grads) == set(net.params)
    for name, g in grads.items():
        assert g.shape == net.params[name].shape
        assert g.any(), f"no gradient signal reached {name}"


def test_whole_network_gradients_match_finite_differences():
    net = graph.build_lfhn(graph.tiny_config(), seed=14)
    train.randomize_biases(net, seed=14)
    rng = np.random.default_rng(15)
    x = rng.uniform(size=(2, 8, 8, 3))
    y = rng.integers(0, 3, size=2)
    report = train.grad_check(net, x, y, max_per_tensor=8, seed=15)
    assert report.passed(1e-5), "\n".join(report.format_lines())


# ---------------------------------------------------------------- initialization

# the paper's widths at 67x67x1: fc6.weight holds 7 * 7 * 500 * 512 =
# 12,544,000 values, so it is drawn in 12 blocks (the last one short)
PAPER_WIDTHS_67 = replace(LfhnConfig(), input_height=67, input_width=67, input_channels=1)


def _reference_init(cfg, seed):
    """build_lfhn's documented draw, walked by hand on one thread."""
    rng = np.random.default_rng(seed)
    params = {}
    for i, (name, shape) in enumerate(graph.parameter_shapes(cfg).items()):
        if name.endswith(".bias"):
            params[name] = np.zeros(shape)
            continue
        scale = np.sqrt(2.0 / int(np.prod(shape[:-1])))
        size = int(np.prod(shape))
        if size <= graph.INIT_BLOCK:
            params[name] = rng.normal(0.0, scale, shape)
            continue
        blocks = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i, b)))
                  .standard_normal(min(graph.INIT_BLOCK, size - b * graph.INIT_BLOCK)) * scale
                  for b in range(-(-size // graph.INIT_BLOCK))]
        params[name] = np.concatenate(blocks).reshape(shape)
    return params


def _assert_params_bit_equal(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == np.float64 and _same_bits(got[name], want[name]), name


@pytest.mark.parametrize("cfg", [graph.desk_config(10), graph.tiny_config()],
                         ids=["desk", "tiny"])
def test_small_nets_draw_every_weight_from_one_stream_in_registry_order(cfg):
    """No tensor is over one block, so the reference is one default_rng(seed)
    normal draw after another with zero biases, the draws from before blocks."""
    shapes = graph.parameter_shapes(cfg).values()
    assert max(int(np.prod(shape)) for shape in shapes) <= graph.INIT_BLOCK
    _assert_params_bit_equal(graph.build_lfhn(cfg, seed=8).params, _reference_init(cfg, 8))


def test_a_blocked_build_has_the_same_bytes_at_any_thread_count(monkeypatch):
    """fc6 is drawn in 12 seeded blocks on 1 and on 4 threads; conv and fc7
    weights come from the build stream, which fc6 leaves untouched."""
    assert graph.INIT_BLOCK == 1 << 20
    draw, threads = graph._draw_blocks, []

    def spy(blocks):
        threads.append(threading.get_ident())
        draw(blocks)

    monkeypatch.setattr(graph, "_draw_blocks", spy)
    want = _reference_init(PAPER_WIDTHS_67, 3)
    for cpus in (1, 4):
        monkeypatch.setattr(graph.os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        threads.clear()
        _assert_params_bit_equal(graph.build_lfhn(PAPER_WIDTHS_67, seed=3).params, want)
        assert len(threads) == len(set(threads)) == cpus


def test_each_block_of_a_large_tensor_is_its_own_he_normal_draw():
    """Every fc6 block's mean and standard deviation are within 5 standard
    errors of 0 and sqrt(2 / fan_in), and no two blocks are equal."""
    weight = graph.build_lfhn(PAPER_WIDTHS_67, seed=3).params["fc6.weight"]
    sigma = np.sqrt(2.0 / weight.shape[0])
    flat = weight.reshape(-1)
    blocks = [flat[b:b + graph.INIT_BLOCK] for b in range(0, flat.size, graph.INIT_BLOCK)]
    assert len(blocks) == 12 and blocks[-1].size == 12_544_000 - 11 * graph.INIT_BLOCK
    for block in blocks:
        assert abs(block.mean()) < 5 * sigma / np.sqrt(block.size)
        assert abs(block.std() - sigma) < 5 * sigma / np.sqrt(2 * block.size)
    assert len({block.tobytes() for block in blocks}) == len(blocks)


def test_a_desk_build_and_training_batch_never_import_the_thread_pool():
    # a fresh interpreter, because this one may have loaded a large checkpoint
    script = """
import sys
import numpy as np
from lfhn import data, graph, train
net = graph.build_lfhn(graph.desk_config(10), seed=0)
rng = np.random.default_rng(1)
samples = [data.LabeledSample(rng.integers(0, 256, (67, 67, 1), dtype=np.uint8), i % 10, 0, 0)
           for i in range(32)]
train.train(net, samples, train.TrainConfig(epochs=1))
print("concurrent.futures" in sys.modules)
"""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def _fail_off_the_calling_thread(work):
    """work, but raising OSError(EIO) when a pool thread calls it."""
    caller = threading.get_ident()

    def failing(*args):
        if threading.get_ident() != caller:
            raise OSError(5, "Input/output error")
        return work(*args)

    return failing


def test_a_pool_threads_draw_error_reaches_the_caller_of_build_lfhn(monkeypatch):
    monkeypatch.setattr(graph.os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.setattr(graph, "_draw_blocks", _fail_off_the_calling_thread(graph._draw_blocks))
    threads = threading.active_count()
    with pytest.raises(OSError, match="Input/output error"):
        graph.build_lfhn(PAPER_WIDTHS_67, seed=3)
    assert threading.active_count() == threads


def test_a_pool_threads_read_error_reaches_the_caller_of_load_checkpoint(tmp_path,
                                                                         monkeypatch):
    path = tmp_path / "model.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=29), path)
    spans = _spy_on_spans(monkeypatch, 4)
    monkeypatch.setattr(graph, "_read_span", _fail_off_the_calling_thread(graph._read_span))
    threads = threading.active_count()
    with pytest.raises(OSError, match="Input/output error"):
        graph.load_checkpoint(path)
    assert len(spans) == 1  # the calling thread's span; the three others failed
    assert threading.active_count() == threads


# ---------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_bit_exact(tmp_path):
    net = graph.build_lfhn(graph.tiny_config(), seed=16)
    path = tmp_path / "model.lfhn"
    graph.save_checkpoint(net, path)
    loaded = graph.load_checkpoint(path)
    assert loaded.config == net.config
    for name in net.params:
        assert np.array_equal(loaded.params[name], net.params[name])
    x = np.random.default_rng(17).uniform(size=(1, 8, 8, 3))
    a, _ = graph.forward(net, x)
    b, _ = graph.forward(loaded, x)
    assert np.array_equal(a, b)


def test_checkpoint_preserves_frozen_set(tmp_path):
    params = graph.build_lfhn(graph.tiny_config(), seed=18).params
    path, resaved = tmp_path / "model.lfhn", tmp_path / "resaved.lfhn"
    for frozen in [(), {"conv1"}, set(DESK_CONVS), {"fc6", "fc7"}]:
        graph.save_checkpoint(graph.NetworkGraph(graph.tiny_config(), params, frozen), path)
        loaded = graph.load_checkpoint(path)
        assert loaded.frozen == set(frozen)
        graph.save_checkpoint(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    net = graph.build_lfhn(graph.tiny_config(), seed=19)
    path = tmp_path / "model.lfhn"
    graph.save_checkpoint(net, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        graph.load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    net = graph.build_lfhn(graph.tiny_config(), seed=19)
    path = tmp_path / "model.lfhn"
    graph.save_checkpoint(net, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        graph.load_checkpoint(path)


def test_checkpoint_refuses_a_version_1_file_naming_the_version(tmp_path):
    # the bytes version 1 wrote: its config block held two ReLU switches,
    # true in every file, which the format lost with version 2
    path = tmp_path / "model.lfhn"
    _tiny_checkpoint_with_config(path, lambda text: text.replace(
        b"num_classes=3\n", b"num_classes=3\nrelu_after_1x1=true\nrelu_after_hidden=true\n"))
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[8:])
    with pytest.raises(CheckpointError, match=r"^unsupported checkpoint version 1 "
                                              r"\(this build reads version 2\)$"):
        graph.load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    net = graph.build_lfhn(graph.tiny_config(), seed=20)
    path = tmp_path / "model.lfhn"
    graph.save_checkpoint(net, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        graph.load_checkpoint(path)


def test_checkpoint_rejects_record_longer_than_the_file(tmp_path):
    path = tmp_path / "model.lfhn"
    # fc6.weight claims 45 x 4e9 float64 (1.3 TiB): refused before any allocation
    _tiny_checkpoint_with_config(
        path, lambda text: text.replace(b"fc_hidden=8", b"fc_hidden=4000000000"))
    blob = path.read_bytes()
    at = blob.index(b"fc6.weight") + len(b"fc6.weight") + 4
    path.write_bytes(blob[:at] + struct.pack("<2I", 45, 4_000_000_000) + blob[at + 8:])
    with pytest.raises(CheckpointError, match="truncated checkpoint while reading fc6.weight"):
        graph.load_checkpoint(path)


@pytest.mark.parametrize("field", ["config length", "name length", "rank"])
def test_checkpoint_refuses_a_length_past_the_end_of_the_file(tmp_path, field):
    path = tmp_path / "model.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=0), path)
    blob = bytearray(path.read_bytes())
    name = blob.index(b"conv1.kernel")
    # the field's little-endian high byte, 0x00 -> 0xF7, makes it about 4.1e9
    header = r"record header is not that of conv1\.kernel \(2, 2, 3, 4\)"
    high, match = {"config length": (11, "truncated checkpoint while reading config$"),
                   "name length": (name - 1, header),
                   "rank": (name + len(b"conv1.kernel") + 3, header)}[field]
    assert blob[high] == 0
    blob[high] = 0xF7
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=match):
        graph.load_checkpoint(path)


def test_checkpoint_refuses_an_extent_too_large_for_a_u32(tmp_path):
    path = tmp_path / "model.lfhn"
    # fc6.weight would be 45 x 2**32, whose record header cannot hold the extent
    _tiny_checkpoint_with_config(
        path, lambda text: text.replace(b"fc_hidden=8", b"fc_hidden=4294967296"))
    with pytest.raises(CheckpointError, match=r"fc6\.weight: shape \(45, 4294967296\) "
                                              "does not fit a record's u32 fields"):
        graph.load_checkpoint(path)


# replacement bytes for the mutation scan: NUL, the \x0b that splitlines()
# breaks on, space, "+" and "_" that int() and float() accept, a digit, and
# a byte that is never UTF-8; each byte is also tried with its case bit flipped
MUTATION_VALUES = (0x00, 0x0B, 0x20, 0x2B, 0x30, 0x5F, 0xFF)


def test_checkpoint_loads_only_the_bytes_its_save_writes(tmp_path):
    """Every one-byte change outside the float data, and every truncation
    at a header byte or a multiple of 7, is refused or re-saves to itself."""
    net = graph.NetworkGraph(graph.tiny_config(),
                             graph.build_lfhn(graph.tiny_config(), seed=0).params, {"conv1"})
    path, resaved = tmp_path / "model.lfhn", tmp_path / "resaved.lfhn"
    graph.save_checkpoint(net, path)
    blob = path.read_bytes()
    pos = _config_block(blob)[1] + 4
    offsets = list(range(pos))  # magic, version, config length, config, count
    for name, shape in graph.parameter_shapes(net.config).items():
        header = 8 + len(name) + 4 * len(shape)
        offsets += range(pos, pos + header)
        pos += header + 8 * int(np.prod(shape))
    assert pos == len(blob) and len(offsets) == 613
    cases = [blob[:n] for n in sorted({*offsets, *range(0, len(blob), 7)})]
    for i in offsets:
        for value in sorted({*MUTATION_VALUES, blob[i] ^ 0x20} - {blob[i]}):
            cases.append(blob[:i] + bytes([value]) + blob[i + 1:])
    loaded = 0
    for case in cases:
        path.write_bytes(case)
        try:
            loaded_net = graph.load_checkpoint(path)
        except CheckpointError:
            continue
        graph.save_checkpoint(loaded_net, resaved)
        assert resaved.read_bytes() == case
        loaded += 1
    assert loaded  # canonical edits load, such as lrn_beta=0.75 -> 0.05


def _spy_on_spans(monkeypatch, cpus):
    """Make load_checkpoint see `cpus` CPUs and cut spans at any size; return
    the list that each span's (first offset, [(offset, bytes, name)]) joins."""
    monkeypatch.setattr(graph.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(graph, "READ_SPAN_BYTES", 1)
    spans, read_span = [], graph._read_span

    def spy(fd, span):
        spans.append((span[0][0], [(offset, len(view), name) for offset, view, name in span]))
        read_span(fd, span)

    monkeypatch.setattr(graph, "_read_span", spy)
    return spans


def test_parallel_checkpoint_read_is_bit_exact_wherever_its_spans_end(tmp_path, monkeypatch):
    """At fc_hidden=2, three spans of the 2304 data bytes end on conv3.kernel's
    last byte and inside fc6.weight; four end on conv2.bias's last byte and
    inside conv5.kernel and fc6.weight. The spans cover every record once,
    bit for bit."""
    net = graph.build_lfhn(replace(graph.tiny_config(), fc_hidden=2), seed=25)
    train.randomize_biases(net, seed=26)
    path = tmp_path / "model.lfhn"
    graph.save_checkpoint(net, path)
    for cpus, span_ends in ((2, ["inside"]), (3, ["boundary", "inside"]),
                            (4, ["boundary", "inside", "inside"])):
        spans = _spy_on_spans(monkeypatch, cpus)
        loaded = graph.load_checkpoint(path)
        assert [p.tobytes() for p in loaded.params.values()] == \
            [p.tobytes() for p in net.params.values()]
        pieces = sorted(piece for _, span in spans for piece in span)
        assert all(a[0] + a[1] <= b[0] for a, b in zip(pieces, pieces[1:]))
        for name, p in net.params.items():
            assert sum(n for _, n, piece in pieces if piece == name) == p.nbytes
        spans = [span for _, span in sorted(spans)]
        assert ["inside" if a[-1][2] == b[0][2] else "boundary"
                for a, b in zip(spans, spans[1:])] == span_ends


def test_a_read_that_stops_short_names_its_record_and_leaves_no_thread(tmp_path, monkeypatch):
    net = graph.build_lfhn(graph.tiny_config(), seed=27)
    path = tmp_path / "model.lfhn"
    graph.save_checkpoint(net, path)
    blob = path.read_bytes()
    # 100 bytes into fc6.weight's data, past its name, rank and two extents
    cut = blob.index(b"fc6.weight") + len(b"fc6.weight") + 12 + 100
    preadv = os.preadv

    def shrunk(fd, buffers, offset):  # the file as if cut short after the header check
        return 0 if offset >= cut else preadv(fd, [buffers[0][:cut - offset]], offset)

    spans = _spy_on_spans(monkeypatch, 4)
    monkeypatch.setattr(graph.os, "preadv", shrunk)
    threads = threading.active_count()
    with pytest.raises(CheckpointError, match=r"^truncated checkpoint while reading fc6\.weight$"):
        graph.load_checkpoint(path)
    assert len(spans) == 4
    assert threading.active_count() == threads


def test_a_small_checkpoint_loads_without_starting_a_thread(tmp_path, monkeypatch):
    path = tmp_path / "model.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=28), path)

    def refuse(thread):
        raise AssertionError(f"load_checkpoint started thread {thread.name}")

    monkeypatch.setattr(graph.os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert graph.load_checkpoint(path).params.keys() == graph.parameter_shapes(
        graph.tiny_config()).keys()


def test_loaded_checkpoint_is_trainable(tmp_path):
    path = tmp_path / "model.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=22), path)
    net = graph.load_checkpoint(path)
    assert all(p.flags.writeable for p in net.params.values())
    x = np.random.default_rng(23).uniform(size=(2, 8, 8, 3))
    logits, cache = graph.forward(net, x)
    _, grad_logits = layers.softmax_xent(logits, [0, 2])
    grads = graph.backward(net, cache, grad_logits)
    before = {name: p.copy() for name, p in net.params.items()}
    train.sgd_step(net.params, grads, {}, 0.1, 0.9)
    assert not np.array_equal(net.params["fc7.weight"], before["fc7.weight"])


def test_failed_save_keeps_earlier_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=0), path)
    earlier = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(graph.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=1), path)
    assert path.read_bytes() == earlier
    assert [p.name for p in tmp_path.iterdir()] == ["model.lfhn"]


def _config_block(blob):
    """(start, end) byte offsets of the config text inside a checkpoint."""
    length = int.from_bytes(blob[8:12], "little")
    return 12, 12 + length


def test_checkpoint_config_block_format_is_pinned(tmp_path):
    path = tmp_path / "model.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=0), path)
    blob = path.read_bytes()
    start, end = _config_block(blob)
    assert blob[start:end].decode("utf-8") == (
        "input_height=8\ninput_width=8\ninput_channels=3\n"
        "root_kernel=2\nroot_channels=4\nroot_stride=1\n"
        "streams=4,6|5\npost_concat_channels=5\nfc_hidden=8\nnum_classes=3\n"
        "lrn_size=3\nlrn_k=2.0\nlrn_alpha=0.01\nlrn_beta=0.75\nfrozen="
    )


def _tiny_checkpoint_with_config(path, edit):
    """Save a tiny_config checkpoint whose config text is replaced by edit(text)."""
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=0), path)
    blob = path.read_bytes()
    start, end = _config_block(blob)
    text = edit(blob[start:end])
    path.write_bytes(blob[:8] + len(text).to_bytes(4, "little") + text + blob[end:])


@pytest.mark.parametrize("old, new, match", [
    (b"frozen=", b"bogus=1\nfrozen=", r"line 15 reads \['bogus=1'\]"),
    (b"frozen=", b"lrn_k=3.0\nfrozen=", r"line 15 reads \['lrn_k=3.0'\]"),
    (b"frozen=", b"frozen=conv99,norm1", r"\['conv99', 'norm1'\] are not nodes with parameters"),
], ids=["unknown-key", "repeated-key", "frozen-without-parameters"])
def test_checkpoint_refuses_config_it_would_ignore(tmp_path, old, new, match):
    path = tmp_path / "model.lfhn"
    _tiny_checkpoint_with_config(path, lambda text: text.replace(old, new))
    with pytest.raises(CheckpointError, match=match):
        graph.load_checkpoint(path)


def test_checkpoint_rejects_config_that_does_not_tile(tmp_path):
    path = tmp_path / "model.lfhn"
    _tiny_checkpoint_with_config(
        path, lambda text: text.replace(b"input_height=8", b"input_height=9"))
    with pytest.raises(CheckpointError, match="pool1: non-integral"):
        graph.load_checkpoint(path)


def test_checkpoint_rejects_a_bad_lrn_constant_naming_the_key(tmp_path):
    path = tmp_path / "model.lfhn"
    _tiny_checkpoint_with_config(path, lambda text: text.replace(b"lrn_k=2.0", b"lrn_k=nan"))
    with pytest.raises(CheckpointError,
                       match="invalid config block: lrn_k must be finite and > 0, got nan"):
        graph.load_checkpoint(path)


def test_checkpoint_rejects_a_config_value_that_does_not_parse_naming_the_key(tmp_path):
    path = tmp_path / "model.lfhn"
    _tiny_checkpoint_with_config(path, lambda text: text.replace(b"lrn_size=3", b"lrn_size=3.0"))
    with pytest.raises(CheckpointError, match=r"^invalid config block: lrn_size: invalid "
                                              r"literal for int\(\) with base 10: '3\.0'$"):
        graph.load_checkpoint(path)


def test_checkpoint_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "model.lfhn"
    _tiny_checkpoint_with_config(path, lambda text: b"\xff" + text[1:])
    with pytest.raises(CheckpointError, match="config is not UTF-8"):
        graph.load_checkpoint(path)
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=0), path)
    blob = path.read_bytes()
    at = blob.index(b"conv1.kernel")
    path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
    with pytest.raises(CheckpointError, match=r"record header is not that of conv1\.kernel"):
        graph.load_checkpoint(path)

