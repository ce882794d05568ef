import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lfhn import data, evaluate, graph, layers, train
from lfhn.data import LabeledSample
from lfhn.train import TrainConfig


def _toy_samples(n_per_class, classes, seed, shape=(8, 8, 3)):
    """Separable toy set: each identity gets its own bright quadrant."""
    rng = np.random.default_rng(seed)
    samples = []
    h, w, c = shape
    for identity in range(classes):
        for _ in range(n_per_class):
            image = rng.uniform(0.0, 0.2, size=shape)
            y0 = (identity // 2) * (h // 2)
            x0 = (identity % 2) * (w // 2)
            image[y0:y0 + h // 2, x0:x0 + w // 2, :] += 0.7
            samples.append(LabeledSample(np.clip(image, 0, 1), identity, 0, 0))
    return samples


# ---------------------------------------------------------------- sgd_step

def test_sgd_step_plain():
    params = {"p": np.array([0.0])}
    train.sgd_step(params, {"p": np.array([1.0])}, {}, lr=0.1, momentum=0.0)
    assert np.allclose(params["p"], [-0.1])


def test_sgd_step_zero_grad_keeps_params():
    params = {"p": np.array([1.5])}
    velocity = {}
    train.sgd_step(params, {"p": np.array([0.0])}, velocity, lr=0.5, momentum=0.9)
    assert params["p"][0] == 1.5
    assert velocity["p"][0] == 0.0


def test_sgd_step_matches_scalar_recurrence():
    # two momentum steps on d/dp of 0.5*p^2, against the hand recurrence
    lr, momentum = 0.1, 0.9
    p, v = 1.0, 0.0
    params = {"p": np.array([p])}
    velocity = {}
    for _ in range(2):
        grad = params["p"].copy()  # gradient of the quadratic at p
        train.sgd_step(params, {"p": grad}, velocity, lr, momentum)
        v = momentum * v - lr * p
        p = p + v
    assert np.allclose(params["p"], [p], atol=1e-15)
    assert np.allclose(velocity["p"], [v], atol=1e-15)


def test_sgd_step_unknown_parameter():
    with pytest.raises(KeyError, match="ghost"):
        train.sgd_step({"p": np.zeros(1)}, {"ghost": np.zeros(1)}, {}, 0.1, 0.0)


# ---------------------------------------------------------------- augment

def test_augment_identity_when_extents_match():
    rng = np.random.default_rng(0)
    image = rng.uniform(size=(8, 8, 1))
    out = train.augment(image, 8, 8, np.random.default_rng(1))
    # offset is forced to zero; only the mirror coin remains
    assert np.array_equal(out, image) or np.array_equal(out, image[:, ::-1, :])


def test_augment_seeded_replay_is_identical():
    image = np.random.default_rng(3).uniform(size=(10, 10, 1))
    a = [train.augment(image, 8, 8, np.random.default_rng(4)) for _ in range(3)]
    b = [train.augment(image, 8, 8, np.random.default_rng(4)) for _ in range(3)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_augment_crop_stays_inside_source():
    image = np.arange(100.0).reshape(10, 10, 1)
    rng = np.random.default_rng(5)
    for _ in range(20):
        out = train.augment(image, 6, 6, rng)
        assert out.shape == (6, 6, 1)


def test_augment_target_larger_than_source():
    with pytest.raises(ValueError, match="larger"):
        train.augment(np.zeros((4, 4, 1)), 6, 6, np.random.default_rng(0))


def test_center_crop_offsets():
    image = np.arange(25.0).reshape(5, 5, 1)
    out = train.center_crop(image, 3, 3)
    assert np.array_equal(out, image[1:4, 1:4, :])
    assert np.shares_memory(out, image)  # a view, not a copy


# ---------------------------------------------------------------- train

def test_train_lr_zero_keeps_parameters():
    samples = _toy_samples(2, 3, seed=6)
    net = graph.build_lfhn(graph.tiny_config(), seed=7)
    before = {k: v.copy() for k, v in net.params.items()}
    _, log = train.train(net, samples, TrainConfig(lr=0.0, epochs=3, seed=8))
    for name in before:
        assert np.array_equal(net.params[name], before[name])
    losses = [loss for _, loss, _ in log]
    assert max(losses) - min(losses) < 1e-12


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_train_stops_at_first_non_finite_loss():
    samples = _toy_samples(2, 3, seed=6)
    net = graph.build_lfhn(graph.tiny_config(), seed=7)
    net.params["fc7.bias"][0] = np.inf
    before = {k: v.copy() for k, v in net.params.items()}
    with pytest.raises(train.TrainingDiverged, match="epoch 0, batch 0"):
        train.train(net, samples, TrainConfig(epochs=2, seed=8))
    for name in before:
        assert np.array_equal(net.params[name], before[name])


def test_train_reaches_full_accuracy_on_separable_toy_set():
    samples = _toy_samples(8, 2, seed=9)
    net = graph.build_lfhn(graph.tiny_config(num_classes=2), seed=10)
    # narrow freshly built layers can start with a dead rectifier; move the
    # biases to a generic point so the toy problem tests the optimizer
    train.randomize_biases(net, seed=10)
    _, log = train.train(net, samples,
                         TrainConfig(lr=0.05, momentum=0.9, batch_size=8,
                                     epochs=50, seed=11))
    assert max(acc for _, _, acc in log) == 1.0


def test_train_seeded_rerun_gives_identical_log():
    samples = _toy_samples(3, 2, seed=12)
    logs = []
    for _ in range(2):
        net = graph.build_lfhn(graph.tiny_config(num_classes=2), seed=13)
        _, log = train.train(net, samples,
                             TrainConfig(lr=0.02, epochs=4, seed=14))
        logs.append(log)
    assert logs[0] == logs[1]


def test_train_frozen_root_invariance():
    samples = _toy_samples(3, 3, seed=15)
    net = graph.build_lfhn(graph.tiny_config(), seed=16)
    train.randomize_biases(net, seed=16)
    kernel = net.params["conv1.kernel"].copy()
    bias = net.params["conv1.bias"].copy()
    others = {k: v.copy() for k, v in net.params.items() if not k.startswith("conv1.")}
    train.train(net, samples,
                TrainConfig(lr=0.05, momentum=0.9, epochs=5, seed=17, freeze_root=True))
    assert np.array_equal(net.params["conv1.kernel"], kernel)
    assert np.array_equal(net.params["conv1.bias"], bias)
    for name, value in others.items():
        assert not np.array_equal(net.params[name], value), f"{name} never moved"


def test_train_rejects_out_of_range_labels():
    samples = _toy_samples(1, 3, seed=18)  # identities 0..2
    net = graph.build_lfhn(graph.tiny_config(num_classes=2), seed=19)
    with pytest.raises(ValueError, match="label"):
        train.train(net, samples, TrainConfig(epochs=1))


def test_train_names_a_negative_label():
    samples = [LabeledSample(np.zeros((8, 8, 3)), identity, 0, 0) for identity in (-1, 0, 1)]
    net = graph.build_lfhn(graph.tiny_config(num_classes=3), seed=19)
    with pytest.raises(ValueError, match=r"label -1 out of range \[0, 3\)"):
        train.train(net, samples, TrainConfig(epochs=1))


def test_train_rejects_mixed_image_dtypes():
    samples = _toy_samples(2, 2, seed=21)
    samples[1] = replace(samples[1], image=np.zeros((8, 8, 3), dtype=np.uint8))
    net = graph.build_lfhn(graph.tiny_config(num_classes=2), seed=22)
    with pytest.raises(ValueError, match="mix dtypes float64, uint8"):
        train.train(net, samples, TrainConfig(epochs=1))


@pytest.mark.parametrize("augment", [False, True])
def test_training_on_stored_pixels_matches_training_on_scaled_floats(tmp_path, augment):
    # images as loaded (uint8) and the same images given as floats in [0, 1]
    # must give the same bits: parameters, epoch log and rank-1 table
    size = 10
    data.generate_corpus(tmp_path, 2, lights=data.default_light_roster(2), seed=3,
                         height=size, width=size)
    stored = data.load_corpus(tmp_path)
    assert stored[0].image.dtype == np.uint8
    scaled = [replace(s, image=s.image.astype(np.float64) / 255.0) for s in stored]
    extent = size - 2 if augment else size
    cfg = replace(graph.tiny_config(num_classes=2), input_height=extent,
                  input_width=extent, input_channels=1)
    results = []
    for samples in (stored, scaled):
        net = graph.build_lfhn(cfg, seed=4)
        log_path = tmp_path / f"log{len(results)}.csv"
        _, log = train.train(net, samples, TrainConfig(lr=0.05, batch_size=8, epochs=2,
                                                      seed=5, augment=augment))
        train.write_log(log, log_path)
        crops = [train.center_crop(s.image, extent, extent) for s in samples]
        table = evaluate.format_table(evaluate.rank_table_from_predictions(
            evaluate.predict(net, crops, batch_size=16), samples))
        params = {k: v.tobytes() for k, v in net.params.items()}
        results.append((params, log, log_path.read_text(), table))
    assert results[0] == results[1]


def test_batches_of_one_dtype_each_train_and_predict_like_all_uint8(tmp_path):
    # the dtype rule holds per batch: at batch size 1, alternating stored
    # uint8 images with the same pixels as floats gives the all-uint8 bits
    size = 10
    data.generate_corpus(tmp_path, 2, lights=data.default_light_roster(2), seed=3,
                         height=size, width=size)
    stored = data.load_corpus(tmp_path)
    alternating = [replace(s, image=s.image.astype(np.float64) / 255.0) if i % 2 else s
                   for i, s in enumerate(stored)]
    cfg = replace(graph.tiny_config(num_classes=2), input_height=size,
                  input_width=size, input_channels=1)
    results = []
    for samples in (stored, alternating):
        net = graph.build_lfhn(cfg, seed=4)
        _, log = train.train(net, samples, TrainConfig(lr=0.05, batch_size=1, epochs=2,
                                                      seed=5))
        log_path = tmp_path / f"log{len(results)}.csv"
        train.write_log(log, log_path)
        decisions = evaluate.predict(net, [s.image for s in samples], batch_size=1)
        params = {k: v.tobytes() for k, v in net.params.items()}
        results.append((params, log_path.read_text(), decisions.tolist()))
    assert results[0] == results[1]


def test_train_and_evaluate_hold_no_float64_copy_of_the_dataset():
    rng = np.random.default_rng(23)
    n, shape = 4000, (8, 8, 3)
    samples = [LabeledSample(rng.integers(0, 256, size=shape, dtype=np.uint8), i % 3, 0, 0)
               for i in range(n)]
    float64_copy = n * int(np.prod(shape)) * 8
    net = graph.build_lfhn(graph.tiny_config(num_classes=3), seed=24)
    for run in (lambda: train.train(net, samples, TrainConfig(lr=0.01, epochs=1, seed=25)),
                lambda: evaluate.evaluate(net, samples)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < float64_copy


def test_desk_training_step_holds_one_tensor_per_conv_relu_pair():
    # forward, loss, backward and update of a desk batch of 32, velocity
    # included. Keeping each pre-activation beside its ReLU output and the
    # whole cache through backward peaked at 14.4 MB on numpy 2.4; one tensor
    # per pair and a cache that backward consumes peak at 11.2 MB
    net = graph.build_lfhn(graph.desk_config(10), seed=26)
    rng = np.random.default_rng(27)
    x = rng.uniform(size=(32, 67, 67, 1))
    labels = rng.integers(0, 10, size=32)
    tracemalloc.start()
    try:
        logits, cache = graph.forward(net, x)
        _, grad_logits = layers.softmax_xent(logits, labels)
        grads = graph.backward(net, cache, grad_logits)
        train.sgd_step(net.params, grads, {}, 0.01, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13.0e6


def test_train_rejects_empty_dataset():
    net = graph.build_lfhn(graph.tiny_config(), seed=20)
    with pytest.raises(ValueError, match="empty"):
        train.train(net, [], TrainConfig(epochs=1))


def test_train_with_augmentation_crops_to_input():
    # corpus images 10x10 against an 8x8 network input: augmentation crops
    rng = np.random.default_rng(40)
    samples = [
        LabeledSample(rng.uniform(size=(10, 10, 3)), i % 2, 0, 0) for i in range(8)
    ]
    net = graph.build_lfhn(graph.tiny_config(num_classes=2), seed=41)
    _, log = train.train(net, samples,
                         TrainConfig(lr=0.01, epochs=2, seed=42, augment=True))
    assert len(log) == 2
    # without augmentation each image is center-cropped, as evaluation does:
    # the run is the one on the 8x8 centers cut out by hand
    centers = [LabeledSample(s.image[1:9, 1:9], s.identity, 0, 0) for s in samples]
    nets = []
    for corpus in (samples, centers):
        nets.append(graph.build_lfhn(graph.tiny_config(num_classes=2), seed=41))
        train.train(nets[-1], corpus, TrainConfig(lr=0.01, epochs=1, seed=42))
    for name, param in nets[0].params.items():
        assert np.array_equal(param, nets[1].params[name]), name


def test_lr_step_decay_sets_one_rate_per_batch(monkeypatch):
    rates = []
    sgd_step = train.sgd_step

    def recording_step(params, grads, velocity, lr, momentum):
        rates.append(lr)
        return sgd_step(params, grads, velocity, lr, momentum)

    monkeypatch.setattr(train, "sgd_step", recording_step)
    samples = _toy_samples(3, 2, seed=43)  # 6 samples: 2 batches of at most 4
    net = graph.build_lfhn(graph.tiny_config(num_classes=2), seed=44)
    train.train(net, samples, TrainConfig(lr=0.02, batch_size=4, epochs=3, seed=45,
                                          lr_decay_every=2, lr_decay_factor=0.1))
    assert rates == [0.02] * 4 + [0.02 * 0.1] * 2


def test_train_log_csv_format(tmp_path):
    samples = _toy_samples(2, 2, seed=21)
    net = graph.build_lfhn(graph.tiny_config(num_classes=2), seed=22)
    path = tmp_path / "log.csv"
    _, log = train.train(net, samples, TrainConfig(lr=0.01, epochs=2, seed=23))
    train.write_log(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,mean_loss,train_acc"
    assert len(lines) == 3
    epoch, loss, acc = lines[1].split(",")
    assert (int(epoch), float(loss), float(acc)) == log[0]


def test_first_step_rarely_increases_the_loss():
    # descent sanity: a small step should not increase the batch loss
    wins = 0
    for trial in range(100):
        net = graph.build_lfhn(graph.tiny_config(), seed=trial)
        train.randomize_biases(net, seed=trial)
        rng = np.random.default_rng(1000 + trial)
        x = rng.uniform(size=(4, 8, 8, 3))
        y = rng.integers(0, 3, size=4)
        logits, cache = graph.forward(net, x)
        loss0, grad_logits = layers.softmax_xent(logits, y)
        grads = graph.backward(net, cache, grad_logits)
        train.sgd_step(net.params, grads, {}, lr=1e-3, momentum=0.0)
        loss1, _ = layers.softmax_xent(graph.forward(net, x)[0], y)
        wins += loss1 <= loss0
    assert wins >= 95


def test_train_config_invariants():
    with pytest.raises(ValueError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    for lr in (np.nan, np.inf):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(lr=lr)
    with pytest.raises(ValueError, match="lr_decay_every"):
        TrainConfig(lr_decay_every=-1)
    for factor in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="lr_decay_factor"):
            TrainConfig(lr_decay_factor=factor)
    TrainConfig(lr=0.0, lr_decay_every=0, lr_decay_factor=2.0)  # edges that stay legal


# ---------------------------------------------------------------- grad_check

def test_grad_check_full_tiny_network():
    net = graph.build_lfhn(graph.tiny_config(), seed=26)
    train.randomize_biases(net, seed=26)
    rng = np.random.default_rng(27)
    x = rng.uniform(size=(2, 8, 8, 3))
    y = rng.integers(0, 3, size=2)
    report = train.grad_check(net, x, y, max_per_tensor=16, seed=27)
    assert report.passed(1e-5), "\n".join(report.format_lines())
    assert {c.name for c in report.checks} == set(net.params)


def test_grad_check_flags_corrupted_lrn_backward(monkeypatch):
    # drop the cross-channel terms of the normalization adjoint; the root conv
    # parameters (whose gradient path crosses the norm layer) must be flagged
    def lopsided(x, grad_out, size, k, alpha, beta):
        s = k + (alpha / size) * layers._window_sum_channels(x * x, size // 2)
        return grad_out * s ** (-beta)

    monkeypatch.setattr(layers, "lrn_backward", lopsided)
    net = graph.build_lfhn(graph.tiny_config(), seed=28)
    train.randomize_biases(net, seed=28)
    rng = np.random.default_rng(29)
    x = rng.uniform(size=(2, 8, 8, 3))
    y = rng.integers(0, 3, size=2)
    report = train.grad_check(net, x, y, max_per_tensor=16, seed=29)
    assert not report.passed(1e-5)
    flagged = {c.name for c in report.checks if c.max_rel_err >= 1e-5}
    assert flagged and all(name.startswith("conv1.") for name in flagged)


def test_grad_check_flags_nan_backward(monkeypatch):
    # a nan gradient compares false against every error, yet must fail the check
    lrn_backward = layers.lrn_backward
    monkeypatch.setattr(layers, "lrn_backward",
                        lambda *a, **kw: lrn_backward(*a, **kw) * np.nan)
    net = graph.build_lfhn(graph.tiny_config(), seed=28)
    train.randomize_biases(net, seed=28)
    rng = np.random.default_rng(29)
    x = rng.uniform(size=(2, 8, 8, 3))
    y = rng.integers(0, 3, size=2)
    report = train.grad_check(net, x, y, max_per_tensor=4, seed=29)
    assert not report.passed(1e-5)
    assert {c.name for c in report.checks if c.max_rel_err == np.inf} == {"conv1.kernel",
                                                                          "conv1.bias"}


@pytest.mark.parametrize("setting", [{"max_per_tensor": 0}, {"max_per_tensor": -1},
                                     {"epsilon": 0.0}, {"epsilon": np.inf},
                                     {"epsilon": np.nan}])
def test_grad_check_rejects_settings_that_check_nothing(setting):
    net = graph.build_lfhn(graph.tiny_config(), seed=30)
    with pytest.raises(ValueError, match="max_per_tensor|epsilon"):
        train.grad_check(net, np.zeros((1, 8, 8, 3)), [0], **setting)


def test_grad_check_param_filter():
    net = graph.build_lfhn(graph.tiny_config(), seed=30)
    train.randomize_biases(net, seed=30)
    rng = np.random.default_rng(31)
    x = rng.uniform(size=(1, 8, 8, 3))
    y = rng.integers(0, 3, size=1)
    report = train.grad_check(net, x, y, max_per_tensor=4, seed=31,
                              param_filter=lambda n: n.startswith("fc"))
    assert report.checks and all(c.name.startswith("fc") for c in report.checks)


def test_grad_report_relative_error_definition():
    assert train.relative_error(1.0, 1.0) == 0.0
    assert train.relative_error(0.0, 1e-9) == pytest.approx(1e-9 / 1e-8)
    assert train.relative_error(2.0, 1.0) == 0.5
    assert train.relative_error(np.nan, 1.0) == np.inf
