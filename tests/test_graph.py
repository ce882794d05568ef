import os
import struct
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

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
    cfg = replace(LfhnConfig(), input_height=8, input_width=8)
    with pytest.raises(ValueError, match="conv1: "):
        graph.shape_trace(cfg)


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
    "no-relu": replace(graph.tiny_config(), relu_after_1x1=False, relu_after_hidden=False),
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
    with pytest.raises(ValueError):
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


def test_liveness_of_a_hand_built_graph():
    # conv1 is read by relu1 and, later, by concat; "side" is read by nothing
    cfg = graph.tiny_config()
    rng = np.random.default_rng(4)
    nodes = [graph.Node("input", "input", (), {}),
             graph.Node("conv1", "conv", ("input",), {"stride": 1}),
             graph.Node("relu1", "relu", ("conv1",), {}),
             graph.Node("side", "relu", ("conv1",), {}),
             graph.Node("concat", "concat", ("relu1", "conv1"), {}),
             graph.Node("flatten", "flatten", ("concat",), {}),
             graph.Node("fc2", "fc", ("flatten",), {})]
    params = {"conv1.kernel": rng.normal(size=(2, 2, 3, 4)), "conv1.bias": rng.normal(size=4),
              "fc2.weight": rng.normal(size=(7 * 7 * 8, 3)), "fc2.bias": rng.normal(size=3)}
    net = graph.NetworkGraph(cfg, nodes, params)
    assert net.dead_after == {"input": [], "conv1": ["input"], "relu1": [],
                              "side": ["side"], "concat": ["conv1", "relu1"],
                              "flatten": ["concat"], "fc2": ["flatten"]}
    x = rng.uniform(size=(3, 8, 8, 3))
    assert _same_bits(graph.forward(net, x, inference=True)[0], graph.forward(net, x)[0])


def test_backward_refuses_an_inference_result():
    net = graph.build_lfhn(graph.tiny_config(), seed=11)
    logits, cache = graph.forward(net, np.zeros((1, 8, 8, 3)), inference=True)
    with pytest.raises(ValueError, match="inference forward"):
        graph.backward(net, cache, np.zeros_like(logits))


def _in_place_probe_graph():
    """A hand-built graph with every case of the in-place rule.

    relu0 reads the caller's batch, so it copies. conv1 is read by relu1 and
    by concat, so relu1 copies; nothing after concat rectifies conv1's
    negative values. relu2 and relu4 are their input's only reader and
    rectify in place.
    """
    rng = np.random.default_rng(24)
    nodes = [graph.Node("input", "input", (), {}),
             graph.Node("relu0", "relu", ("input",), {}),
             graph.Node("conv1", "conv", ("relu0",), {"stride": 1}),
             graph.Node("relu1", "relu", ("conv1",), {}),
             graph.Node("relu2", "relu", ("relu1",), {}),
             graph.Node("concat", "concat", ("relu2", "conv1"), {}),
             graph.Node("flatten", "flatten", ("concat",), {}),
             graph.Node("fc2", "fc", ("flatten",), {}),
             graph.Node("relu4", "relu", ("fc2",), {}),
             graph.Node("fc3", "fc", ("relu4",), {})]
    params = {"conv1.kernel": rng.normal(size=(2, 2, 3, 4)), "conv1.bias": rng.normal(size=4),
              "fc2.weight": rng.normal(size=(7 * 7 * 8, 5)), "fc2.bias": rng.normal(size=5),
              "fc3.weight": rng.normal(size=(5, 3)), "fc3.bias": rng.normal(size=3)}
    return graph.NetworkGraph(graph.tiny_config(), nodes, params)


def _flat_input_graph():
    """relu1 reads a flatten view of the caller's batch, so it must copy."""
    rng = np.random.default_rng(31)
    nodes = [graph.Node("input", "input", (), {}),
             graph.Node("flatten", "flatten", ("input",), {}),
             graph.Node("relu1", "relu", ("flatten",), {}),
             graph.Node("fc2", "fc", ("relu1",), {}),
             graph.Node("relu2", "relu", ("fc2",), {}),
             graph.Node("fc3", "fc", ("relu2",), {})]
    params = {"fc2.weight": rng.normal(size=(8 * 8 * 3, 5)), "fc2.bias": rng.normal(size=5),
              "fc3.weight": rng.normal(size=(5, 3)), "fc3.bias": rng.normal(size=3)}
    return graph.NetworkGraph(graph.tiny_config(), nodes, params)


HAND_BUILT = {"hand-built": _in_place_probe_graph, "flat-input": _flat_input_graph}


def test_relu_in_place_rule():
    assert _in_place_probe_graph().relu_in_place == {"relu2", "relu4"}
    assert _flat_input_graph().relu_in_place == {"relu2"}
    net = graph.build_lfhn(graph.desk_config(10), seed=0)
    assert net.relu_in_place == {n.name for n in net.nodes if n.kind == "relu"}
    assert graph.build_lfhn(CONFIGS["no-relu"], seed=0).relu_in_place == {"relu1"}


def _step_bytes(net, x, labels):
    """Inference and training logits, gradients and parameters after one SGD
    step, as bytes, computed on a copy of net's parameters."""
    net = graph.NetworkGraph(net.config, net.nodes,
                             {k: v.copy() for k, v in net.params.items()}, net.frozen)
    inference = graph.forward(net, x, inference=True)[0]
    logits, cache = graph.forward(net, x)
    _, grad_logits = layers.softmax_xent(logits, labels)
    grads = graph.backward(net, cache, grad_logits)
    grad_bytes = {k: g.tobytes() for k, g in grads.items()}
    train.sgd_step(net.params, grads, {}, 0.05, 0.9)
    return (inference.tobytes(), logits.tobytes(), grad_bytes,
            {k: p.tobytes() for k, p in net.params.items()})


@pytest.mark.parametrize("config", ["tiny", "desk", "no-relu", *HAND_BUILT])
def test_relu_in_place_gives_the_copy_reference_bits(config, monkeypatch):
    if config in HAND_BUILT:
        net = HAND_BUILT[config]()
    else:
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


def test_training_cache_holds_node_outputs_and_backward_lowers_the_root_batch(monkeypatch):
    net = graph.build_lfhn(graph.desk_config(10), seed=5)
    x = np.random.default_rng(6).uniform(size=(2, 67, 67, 1))
    logits, cache = graph.forward(net, x)
    assert cache.keys() == {node.name for node in net.nodes}  # "input" is the first node
    calls = []
    im2col = tensor.im2col
    monkeypatch.setattr(tensor, "im2col",
                        lambda *a, **k: calls.append((a[0].shape, *a[1:])) or im2col(*a, **k))
    _, grad_logits = layers.softmax_xent(logits, [1, 7])
    grads = graph.backward(net, cache, grad_logits)
    assert calls == [(x.shape, 11, 11, 4)]  # conv1 only, once for the whole batch
    assert set(grads) == set(net.params)


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


def test_network_graph_rejects_kind_without_op():
    net = graph.build_lfhn(graph.tiny_config(), seed=7)
    last = net.nodes[-1]
    nodes = net.nodes[:-1] + [replace(last, kind="softmax")]
    with pytest.raises(ValueError, match=f"{last.name!r}.*'softmax'"):
        graph.NetworkGraph(net.config, nodes, net.params)


def test_backward_zero_grad_logits():
    net = graph.build_lfhn(graph.tiny_config(), seed=7)
    x = np.random.default_rng(8).uniform(size=(1, 8, 8, 3))
    logits, cache = graph.forward(net, x)
    grads = graph.backward(net, cache, np.zeros_like(logits))
    assert grads and all(not g.any() for g in grads.values())


def test_backward_frozen_root_has_no_conv1_entries():
    net = graph.build_lfhn(graph.tiny_config(), seed=9)
    net.frozen.add("conv1")
    x = np.random.default_rng(10).uniform(size=(1, 8, 8, 3))
    logits, cache = graph.forward(net, x)
    _, grad_logits = layers.softmax_xent(logits, [0])
    grads = graph.backward(net, cache, grad_logits)
    assert not any(name.startswith("conv1.") for name in grads)
    assert any(name.startswith("conv2.") for name in grads)


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
    net = graph.build_lfhn(graph.tiny_config(), seed=18)
    net.frozen.add("conv1")
    path = tmp_path / "model.lfhn"
    graph.save_checkpoint(net, path)
    assert graph.load_checkpoint(path).frozen == {"conv1"}


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
    net = graph.build_lfhn(graph.tiny_config(), seed=0)
    net.frozen.add("conv1")
    path, resaved = tmp_path / "model.lfhn", tmp_path / "resaved.lfhn"
    graph.save_checkpoint(net, path)
    blob = path.read_bytes()
    pos = _config_block(blob)[1] + 4
    offsets = list(range(pos))  # magic, version, config length, config, count
    for name, shape in graph.parameter_shapes(net.config).items():
        header = 8 + len(name) + 4 * len(shape)
        offsets += range(pos, pos + header)
        pos += header + 8 * int(np.prod(shape))
    assert pos == len(blob) and len(offsets) == 656
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
        "relu_after_1x1=true\nrelu_after_hidden=true\n"
        "lrn_size=3\nlrn_k=2.0\nlrn_alpha=0.01\nlrn_beta=0.75\nfrozen="
    )


def _tiny_checkpoint_with_config(path, edit):
    """Save a tiny_config checkpoint whose config text is replaced by edit(text)."""
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=0), path)
    blob = path.read_bytes()
    start, end = _config_block(blob)
    text = edit(blob[start:end])
    path.write_bytes(blob[:8] + len(text).to_bytes(4, "little") + text + blob[end:])


def test_checkpoint_rejects_bad_bool_in_config(tmp_path):
    path = tmp_path / "model.lfhn"
    _tiny_checkpoint_with_config(
        path, lambda text: text.replace(b"relu_after_1x1=true", b"relu_after_1x1=maybe"))
    with pytest.raises(CheckpointError, match="relu_after_1x1"):
        graph.load_checkpoint(path)


@pytest.mark.parametrize("old, new, match", [
    (b"frozen=", b"bogus=1\nfrozen=", r"line 17 reads \['bogus=1'\]"),
    (b"frozen=", b"lrn_k=3.0\nfrozen=", r"line 17 reads \['lrn_k=3.0'\]"),
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


def test_load_root_weights(tmp_path):
    net = graph.build_lfhn(graph.tiny_config(), seed=22)
    kernel_shape = net.params["conv1.kernel"].shape
    rng = np.random.default_rng(23)
    kernel = rng.normal(size=kernel_shape)
    bias = rng.normal(size=kernel_shape[-1])
    path = tmp_path / "root.f64"
    np.concatenate([kernel.ravel(), bias]).astype("<f8").tofile(path)
    graph.load_root_weights(net, path)
    assert np.array_equal(net.params["conv1.kernel"], kernel)
    assert np.array_equal(net.params["conv1.bias"], bias)


def test_load_root_weights_size_mismatch(tmp_path):
    net = graph.build_lfhn(graph.tiny_config(), seed=24)
    path = tmp_path / "root.f64"
    np.zeros(7, dtype="<f8").tofile(path)
    with pytest.raises(ValueError, match="expected"):
        graph.load_root_weights(net, path)


def test_load_root_weights_refuses_a_partial_float(tmp_path):
    net = graph.build_lfhn(graph.tiny_config(), seed=24)
    before = net.params["conv1.kernel"].copy()
    path = tmp_path / "root.f64"
    # every value the kernel and bias need, plus 3 stray bytes that np.fromfile would drop
    path.write_bytes(np.ones(4 * 2 * 2 * 3 + 4, dtype="<f8").tobytes() + b"\x00" * 3)
    with pytest.raises(ValueError, match="holds 419 bytes, expected 416"):
        graph.load_root_weights(net, path)
    assert np.array_equal(net.params["conv1.kernel"], before)
