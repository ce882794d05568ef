"""End-to-end acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. The heavy criteria train real networks and keep inside the
stated runtime budgets on a single desktop core.
"""

import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lfhn import cli, data, evaluate, graph, layers, tensor, train
from lfhn.layers import LrnParams
from lfhn.train import TrainConfig

from oracles import naive_conv, fd_grad, max_rel_err


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[acceptance] criterion {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"\n[acceptance] criterion {number} PASS ({elapsed:.1f}s): {description}")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "corpus"
    data.generate_corpus(out, 10, seed=7)  # 10 ids x 13 poses x 8 lights, 67x67
    return data.load_corpus(out)


def _desk_training(samples, seed=0, epochs=60):
    net = graph.build_lfhn(graph.desk_config(10, channels=1), seed=seed)
    cfg = TrainConfig(lr=0.02, momentum=0.9, batch_size=32, epochs=epochs, seed=seed)
    return train.train(net, samples, cfg)


def test_criterion_1_shape_conformance(capsys):
    with criterion(1, "shapes reproduces every published dimension in < 1 s"):
        started = time.perf_counter()
        assert cli.main(["shapes"]) == 0
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        expected = {
            "input": "227x227x3",
            "conv1": "55x55x96",
            "pool1": "27x27x96",
            "norm1": "27x27x96",
            "conv2": "27x27x200",
            "conv3": "27x27x400",
            "conv4": "27x27x300",
            "concat": "27x27x700",
            "conv5": "27x27x500",
        }
        printed = dict(line.split() for line in out.splitlines())
        for node, shape in expected.items():
            assert printed[node] == shape, (node, printed[node], shape)
        assert elapsed < 1.0, f"shapes took {elapsed:.2f}s"


def test_criterion_2_gradient_correctness():
    with criterion(2, "whole-network FD check < 1e-5; per-layer checks < 1e-6"):
        started = time.perf_counter()
        net = graph.build_lfhn(graph.tiny_config(), seed=14)
        train.randomize_biases(net, seed=14)
        rng = np.random.default_rng(15)
        x = rng.uniform(size=(2, 8, 8, 3))
        y = rng.integers(0, 3, size=2)
        # the pinned fixture must sit clear of every rectifier kink so the
        # finite differences measure the same function the adjoint does. The
        # ReLUs rectify in place, so each pre-activation is recomputed from
        # its producer's cached input
        _, cache = graph.forward(net, x)
        nodes = {n.name: n for n in net.nodes}

        def pre_activation(relu):
            src = nodes[relu.inputs[0]]
            x_in = cache[src.inputs[0]]
            if src.kind == "conv":
                return layers.conv_forward(x_in, net.params[f"{src.name}.kernel"],
                                           net.params[f"{src.name}.bias"],
                                           src.attrs["stride"])[0]
            assert src.kind == "fc", src.kind
            return layers.fc_forward(x_in, net.params[f"{src.name}.weight"],
                                     net.params[f"{src.name}.bias"])

        relus = [n for n in net.nodes if n.kind == "relu"]
        assert len(relus) == 6
        closest = min(abs(pre_activation(n)).min() for n in relus)
        assert closest > 1e-4, "fixture too close to a rectifier kink"
        report = train.grad_check(net, x, y, epsilon=1e-5, max_per_tensor=32, seed=15)
        assert report.passed(1e-5), "\n".join(report.format_lines())
        assert {c.name for c in report.checks} == set(net.params)
        assert all(c.n_checked >= min(32, net.params[c.name].size)
                   for c in report.checks)
        assert time.perf_counter() - started < 120.0

        r = np.random.default_rng(40)
        # conv (overlapping 3x3 windows, so col2im accumulates)
        x = r.normal(size=(2, 5, 5, 2))
        kernel, bias = r.normal(size=(3, 3, 2, 3)), r.normal(size=3)
        probe = r.normal(size=(2, 3, 3, 3))
        gi, gk, gb = layers.conv_backward(layers.conv_forward(x, kernel, bias)[1],
                                          x.shape, kernel, probe)
        assert max_rel_err(gi, fd_grad(
            lambda v: float((layers.conv_forward(v, kernel, bias)[0] * probe).sum()),
            x.copy())) < 1e-6
        assert max_rel_err(gk, fd_grad(
            lambda v: float((layers.conv_forward(x, v, bias)[0] * probe).sum()),
            kernel.copy())) < 1e-6
        assert max_rel_err(gb, fd_grad(
            lambda v: float((layers.conv_forward(x, kernel, v)[0] * probe).sum()),
            bias.copy())) < 1e-6
        # 1x1 conv
        k1, b1 = r.normal(size=(1, 1, 3, 4)), r.normal(size=4)
        x1 = r.normal(size=(2, 3, 3, 3))
        probe1 = r.normal(size=(2, 3, 3, 4))
        gi, gk, gb = layers.conv_backward(layers.conv_forward(x1, k1, b1)[1],
                                          x1.shape, k1, probe1)
        assert max_rel_err(gi, fd_grad(
            lambda v: float((layers.conv_forward(v, k1, b1)[0] * probe1).sum()),
            x1.copy())) < 1e-6
        # fc
        xf = r.normal(size=(3, 4))
        weight, bias = r.normal(size=(4, 5)), r.normal(size=5)
        probef = r.normal(size=(3, 5))
        gi, gw, gb = layers.fc_backward(xf, weight, probef)
        assert max_rel_err(gw, fd_grad(
            lambda v: float((layers.fc_forward(xf, v, bias) * probef).sum()),
            weight.copy())) < 1e-6
        # lrn
        xl = r.normal(size=(1, 2, 2, 8))
        pl = LrnParams(size=5, k=2.0, alpha=0.5, beta=0.75)
        probel = r.normal(size=xl.shape)
        assert max_rel_err(
            layers.lrn_backward(xl, pl, probel),
            fd_grad(lambda v: float((layers.lrn_forward(v, pl) * probel).sum()),
                    xl.copy())) < 1e-6
        # pool (random values keep windows clear of ties)
        xp = r.normal(size=(1, 5, 5, 2))
        outp = layers.maxpool_forward(xp)
        probep = r.normal(size=outp.shape)
        assert max_rel_err(
            layers.maxpool_backward(xp, outp, probep),
            fd_grad(lambda v: float((layers.maxpool_forward(v) * probep).sum()),
                    xp.copy())) < 1e-6
        # softmax cross-entropy
        logits = r.normal(size=(1, 10))
        label = [int(r.integers(0, 10))]
        _, grad = layers.softmax_xent(logits, label)
        assert max_rel_err(grad, fd_grad(
            lambda v: layers.softmax_xent(v, label)[0], logits.copy())) < 1e-6


def test_criterion_3_oracle_equivalence():
    with criterion(3, "im2col conv vs naive <= 1e-10 and 1x1 fast path vs "
                      "explicit im2col lowering <= 1e-12, 200 cases each"):
        rng = np.random.default_rng(30)
        checked = 0
        while checked < 200:
            h, w = (int(v) for v in rng.integers(4, 17, size=2))
            cin = int(rng.integers(1, 9))
            cout = int(rng.integers(1, 7))
            kh = int(rng.integers(1, min(5, h) + 1))
            kw = int(rng.integers(1, min(5, w) + 1))
            stride = int(rng.integers(1, 3))
            if (h - kh) % stride or (w - kw) % stride:
                continue
            x = rng.normal(size=(1, h, w, cin))
            kernel = rng.normal(size=(kh, kw, cin, cout))
            bias = rng.normal(size=cout)
            got, _ = layers.conv_forward(x, kernel, bias, stride)
            want = naive_conv(x, kernel, bias, stride)
            assert max_rel_err(got, want) < 1e-10, f"case {checked}"
            checked += 1

        for case in range(200):
            h, w = (int(v) for v in rng.integers(1, 13, size=2))
            cin = int(rng.integers(1, 9))
            cout = int(rng.integers(1, 7))
            x = rng.normal(size=(2, h, w, cin))
            kernel = rng.normal(size=(1, 1, cin, cout))
            bias = rng.normal(size=cout)
            fast, _ = layers.conv_forward(x, kernel, bias)
            lowered = (tensor.im2col(x, 1, 1).reshape(-1, cin)
                       @ kernel.reshape(cin, cout) + bias)
            assert max_rel_err(fast, lowered.reshape(fast.shape)) < 1e-12, f"case {case}"


def test_criterion_4_capacity_overfit(corpus):
    with criterion(4, "desk-scale model reaches >= 99% train accuracy with a "
                      "monotone 5-epoch-smoothed loss in < 15 min"):
        started = time.perf_counter()
        _, log = _desk_training(corpus, seed=0, epochs=60)
        elapsed = time.perf_counter() - started
        accs = [acc for _, _, acc in log]
        assert max(accs) >= 0.99, f"best train accuracy {max(accs):.4f}"
        assert len(log) <= 200
        losses = np.array([loss for _, loss, _ in log])
        smoothed = np.array([losses[max(0, i - 4):i + 1].mean()
                             for i in range(len(losses))])
        increases = np.diff(smoothed) > 1e-12
        assert not increases.any(), \
            f"smoothed loss increases at epochs {np.where(increases)[0].tolist()}"
        assert elapsed < 900.0, f"training took {elapsed:.0f}s"


def test_criterion_5_invariance_probes(corpus):
    with criterion(5, "holdout-light rank-1 >= 90% and profile holdout-pose "
                      "rank-1 >= 70% on unseen factors"):
        train_part, test_part = data.split(corpus, "holdout-light:3,7")
        net, _ = _desk_training(train_part, seed=0, epochs=60)
        light_table = evaluate.evaluate(net, test_part)
        assert light_table.mean_pct >= 90.0, f"unseen lights: {light_table.mean_pct:.2f}%"

        train_part, test_part = data.split(corpus, "holdout-pose:0,12")
        net, _ = _desk_training(train_part, seed=0, epochs=60)
        pose_table = evaluate.evaluate(net, test_part)
        assert {b.pose_id for b in pose_table.bins} == {0, 12}
        assert pose_table.mean_pct >= 70.0, f"unseen profiles: {pose_table.mean_pct:.2f}%"
        print(f"\n  holdout-light mean {light_table.mean_pct:.2f}%, "
              f"holdout-pose mean {pose_table.mean_pct:.2f}%")


def test_criterion_6_determinism(tmp_path):
    with criterion(6, "identical seeded train runs give byte-identical "
                      "checkpoints and logs; save/load round-trips bit-exactly"):
        corpus_dir = tmp_path / "corpus"
        data.generate_corpus(corpus_dir, 2, seed=5, height=35, width=35)
        outputs = []
        for tag in ("a", "b"):
            model = tmp_path / f"model_{tag}.lfhn"
            log = tmp_path / f"log_{tag}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "lfhn.cli", "train",
                 "--data", str(corpus_dir), "--out", str(model),
                 "--log", str(log), "--epochs", "3", "--lr", "0.01",
                 "--seed", "11", "--threads", "1"],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append((model.read_bytes(), log.read_bytes()))
        assert outputs[0][0] == outputs[1][0], "checkpoints differ"
        assert outputs[0][1] == outputs[1][1], "epoch logs differ"

        loaded = graph.load_checkpoint(tmp_path / "model_a.lfhn")
        resaved = tmp_path / "resaved.lfhn"
        graph.save_checkpoint(loaded, resaved)
        assert resaved.read_bytes() == outputs[0][0], "round trip not bit-exact"


def test_criterion_7_frozen_root_contract(tmp_path):
    with criterion(7, "50 frozen-root epochs leave conv1 bytes unchanged while "
                      "every other parameter moves"):
        corpus_dir = tmp_path / "corpus"
        data.generate_corpus(corpus_dir, 2, seed=9, height=35, width=35)
        samples = data.load_corpus(corpus_dir)
        cfg = graph.LfhnConfig(input_height=35, input_width=35, input_channels=1,
                               root_kernel=11, root_channels=8, root_stride=4,
                               streams=((8, 8), (8,)), post_concat_channels=8,
                               fc_hidden=16, num_classes=2)
        net = graph.build_lfhn(cfg, seed=1)
        train.randomize_biases(net, seed=1)
        before = {name: value.tobytes() for name, value in net.params.items()}
        train.train(net, samples, TrainConfig(lr=0.02, momentum=0.9, epochs=50,
                                              seed=2, freeze_root=True))
        assert net.params["conv1.kernel"].tobytes() == before["conv1.kernel"]
        assert net.params["conv1.bias"].tobytes() == before["conv1.bias"]
        for name, blob in before.items():
            if not name.startswith("conv1."):
                assert net.params[name].tobytes() != blob, f"{name} never moved"


def test_criterion_8_evaluation_arithmetic():
    with criterion(8, "rank table matches exhaustive enumeration; mean equals "
                      "the unweighted bin average to 1e-9"):
        rng = np.random.default_rng(8)
        samples = []
        for identity in range(7):
            for pose_id in range(13):
                for light_id in range(4):
                    samples.append(data.LabeledSample(np.zeros((2, 2, 1)),
                                                      identity, pose_id, light_id))
        predictions = rng.integers(0, 7, size=len(samples))
        table = evaluate.rank_table_from_predictions(predictions, samples)

        counts = {}
        for pred, sample in zip(predictions, samples):
            correct, total = counts.get(sample.pose_id, (0, 0))
            counts[sample.pose_id] = (correct + (int(pred) == sample.identity),
                                      total + 1)
        for b in table.bins:
            correct, total = counts[b.pose_id]
            assert b.correct == correct and b.n_samples == total
            assert b.rank1_pct == 100.0 * correct / total
        mean = sum(100.0 * c / t for c, t in counts.values()) / len(counts)
        assert abs(table.mean_pct - mean) < 1e-9
