from dataclasses import replace

import numpy as np
import pytest

from lfhn import evaluate, graph, layers, tensor, train
from lfhn.graph import CheckpointError, GraphConfigError, LfhnConfig

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
    with pytest.raises(GraphConfigError, match="conv1"):
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


@pytest.mark.parametrize("cfg", [
    graph.tiny_config(),
    graph.desk_config(10),
    replace(graph.tiny_config(), streams=((4,),), post_concat_channels=3),
    replace(graph.tiny_config(), relu_after_1x1=False, relu_after_hidden=False),
], ids=["tiny", "desk", "single-stream", "no-relu"])
def test_recorded_shapes_match_activations(cfg):
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


def test_training_pass_gathers_root_windows_once(monkeypatch):
    calls = []
    im2col = tensor.im2col
    monkeypatch.setattr(tensor, "im2col", lambda *a, **k: calls.append(a[1:]) or im2col(*a, **k))
    net = graph.build_lfhn(graph.desk_config(10), seed=5)
    logits, cache = graph.forward(net, np.random.default_rng(6).uniform(size=(2, 67, 67, 1)))
    _, grad_logits = layers.softmax_xent(logits, [1, 7])
    grads = graph.backward(net, cache, grad_logits)
    assert calls == [(11, 11, 4, 0)]  # conv1's forward; its backward reuses the rows
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


def test_checkpoint_rejects_bad_bool_in_config(tmp_path):
    path = tmp_path / "model.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=0), path)
    blob = path.read_bytes()
    start, end = _config_block(blob)
    text = blob[start:end].replace(b"relu_after_1x1=true", b"relu_after_1x1=maybe")
    path.write_bytes(blob[:8] + len(text).to_bytes(4, "little") + text + blob[end:])
    with pytest.raises(CheckpointError, match="relu_after_1x1"):
        graph.load_checkpoint(path)


def test_checkpoint_rejects_class_count_mismatch(tmp_path):
    net = graph.build_lfhn(graph.tiny_config(num_classes=10), seed=21)
    path = tmp_path / "model.lfhn"
    graph.save_checkpoint(net, path)
    with pytest.raises(CheckpointError, match="10.*12"):
        graph.load_checkpoint(path, num_classes=12)


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
