import tracemalloc

import numpy as np
import pytest

from lfhn import evaluate as ev
from lfhn import graph, train
from lfhn.data import LabeledSample


def _grid_samples(n_ids, pose_ids, light_ids):
    samples = []
    for i in range(n_ids):
        for p in pose_ids:
            for l in light_ids:
                samples.append(LabeledSample(np.zeros((2, 2, 1)), i, p, l))
    return samples


def _enumerate_rates(predictions, samples):
    """Independent per-bin counting with plain dict loops."""
    rates = {}
    for pred, sample in zip(predictions, samples):
        correct, total = rates.get(sample.pose_id, (0, 0))
        rates[sample.pose_id] = (correct + (pred == sample.identity), total + 1)
    return {p: 100.0 * c / t for p, (c, t) in rates.items()}


def test_oracle_predictor_scores_100_everywhere():
    samples = _grid_samples(5, range(13), range(3))
    predictions = [s.identity for s in samples]
    table = ev.rank_table_from_predictions(predictions, samples)
    assert len(table.bins) == 13
    assert all(b.rank1_pct == 100.0 for b in table.bins)
    assert table.mean_pct == 100.0
    # the thirteen columns come out in yaw roster order
    assert [b.yaw_deg for b in table.bins] == [float(y) for y in range(-90, 91, 15)]


def test_constant_predictor_on_balanced_bins():
    samples = _grid_samples(10, [0, 1], [0])
    predictions = [3] * len(samples)  # always answer identity 3
    table = ev.rank_table_from_predictions(predictions, samples,
                                           yaws={0: -15.0, 1: 15.0})
    want = _enumerate_rates(predictions, samples)
    for b in table.bins:
        assert b.rank1_pct == want[b.pose_id] == 10.0


def test_rank_table_matches_enumeration_on_random_confusion():
    rng = np.random.default_rng(0)
    samples = _grid_samples(6, range(5), range(4))
    predictions = rng.integers(0, 6, size=len(samples))
    table = ev.rank_table_from_predictions(predictions, samples,
                                           yaws={p: float(p) for p in range(5)})
    want = _enumerate_rates(predictions, samples)
    assert {b.pose_id: b.rank1_pct for b in table.bins} == want
    mean = sum(want.values()) / len(want)
    assert abs(table.mean_pct - mean) < 1e-9


def test_sample_order_does_not_change_rates():
    rng = np.random.default_rng(1)
    samples = _grid_samples(4, range(3), range(2))
    predictions = list(rng.integers(0, 4, size=len(samples)))
    yaws = {p: float(p) for p in range(3)}
    base = ev.rank_table_from_predictions(predictions, samples, yaws)
    order = rng.permutation(len(samples))
    shuffled = ev.rank_table_from_predictions([predictions[i] for i in order],
                                              [samples[i] for i in order], yaws)
    assert {(b.pose_id, b.rank1_pct) for b in base.bins} == \
           {(b.pose_id, b.rank1_pct) for b in shuffled.bins}
    assert base.mean_pct == shuffled.mean_pct


def test_absent_roster_bin_warns_and_is_excluded():
    samples = _grid_samples(2, [0, 2], [0])
    table = ev.rank_table_from_predictions([0] * len(samples), samples,
                                           yaws={0: -90.0, 1: 0.0, 2: 90.0, 3: 45.0})
    assert table.absent == (1, 3)
    assert [b.pose_id for b in table.bins] == [0, 2]
    assert table.mean_pct == 50.0


def test_bins_ordered_by_ascending_yaw():
    samples = _grid_samples(2, [2, 0, 1], [0])
    table = ev.rank_table_from_predictions([0] * len(samples), samples,
                                           yaws={0: 45.0, 1: -45.0, 2: 0.0})
    assert [b.pose_id for b in table.bins] == [1, 2, 0]


def test_evaluate_runs_a_real_network_and_leaves_it_untouched():
    cfg = graph.tiny_config(num_classes=4)
    net = graph.build_lfhn(cfg, seed=3)
    train.randomize_biases(net, seed=3)
    before = {k: v.tobytes() for k, v in net.params.items()}
    rng = np.random.default_rng(4)
    samples = [LabeledSample(rng.uniform(size=(8, 8, 3)), int(rng.integers(0, 4)),
                             int(rng.integers(0, 13)), int(rng.integers(0, 8)))
               for _ in range(40)]
    table = ev.evaluate(net, samples)
    assert all(0.0 <= b.rank1_pct <= 100.0 for b in table.bins)
    assert sum(b.n_samples for b in table.bins) == 40
    assert {k: v.tobytes() for k, v in net.params.items()} == before


def test_evaluate_center_crops_larger_images():
    cfg = graph.tiny_config(num_classes=2)
    net = graph.build_lfhn(cfg, seed=5)
    rng = np.random.default_rng(6)
    big = [LabeledSample(rng.uniform(size=(10, 10, 3)), 0, 0, 0)]
    table = ev.evaluate(net, big, yaws={0: 0.0})
    assert table.bins[0].n_samples == 1


def test_evaluate_rejects_labels_beyond_class_count():
    net = graph.build_lfhn(graph.tiny_config(num_classes=2), seed=7)
    samples = [LabeledSample(np.zeros((8, 8, 3)), 5, 0, 0)]
    with pytest.raises(ValueError, match="label"):
        ev.evaluate(net, samples)


def test_evaluate_rejects_a_negative_label():
    net = graph.build_lfhn(graph.tiny_config(num_classes=2), seed=7)
    samples = [LabeledSample(np.zeros((8, 8, 3)), identity, 0, 0) for identity in (0, -1, 1)]
    with pytest.raises(ValueError, match="identity -1"):
        ev.evaluate(net, samples)


def test_evaluate_rejects_mixed_image_dtypes():
    net = graph.build_lfhn(graph.tiny_config(num_classes=2), seed=7)
    samples = [LabeledSample(np.zeros((8, 8, 3)), 0, 0, 0),
               LabeledSample(np.zeros((8, 8, 3), dtype=np.uint8), 1, 0, 0)]
    with pytest.raises(ValueError, match="mix dtypes"):
        ev.evaluate(net, samples)
    with pytest.raises(ValueError, match="mix dtypes"):
        ev.predict(net, [s.image for s in samples])


def test_evaluate_requires_samples():
    net = graph.build_lfhn(graph.tiny_config(), seed=8)
    with pytest.raises(ValueError, match="no samples"):
        ev.evaluate(net, [])


def test_predict_on_no_images_returns_an_empty_int_array():
    net = graph.build_lfhn(graph.tiny_config(), seed=8)
    got = ev.predict(net, np.zeros((0, 8, 8, 3), dtype=np.uint8))
    assert got.shape == (0,) and got.dtype.kind == "i"


def test_desk_evaluation_peaks_below_one_batch_of_root_rows():
    # 130 images at batch 64, as desk-train's held-out side: the training
    # forward's conv1 rows for one batch alone are 64 x 225 x 121 float64
    net = graph.build_lfhn(graph.desk_config(10), seed=9)
    rng = np.random.default_rng(10)
    samples = [LabeledSample(rng.integers(0, 256, size=(67, 67, 1), dtype=np.uint8),
                             i % 10, i % 13, 0) for i in range(130)]
    root_rows = 64 * 15 * 15 * 11 * 11 * 8
    tracemalloc.start()
    try:
        ev.evaluate(net, samples, batch_size=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < root_rows


def test_evaluation_memory_does_not_grow_with_the_image_count():
    # 71x71 images are center-cropped to the 67x67 input. Stacking every
    # crop would add a 67x67 copy per image; stacking per batch adds only
    # the list entry and the prediction
    net = graph.build_lfhn(graph.desk_config(10), seed=9)
    rng = np.random.default_rng(10)
    samples = [LabeledSample(rng.integers(0, 256, size=(71, 71, 1), dtype=np.uint8),
                             i % 10, i % 13, 0) for i in range(400)]
    ev.evaluate(net, samples[:1])  # first-call allocations stay out of the peaks
    peaks = []
    for n in (40, 400):
        tracemalloc.start()
        try:
            table = ev.evaluate(net, samples[:n], batch_size=8)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < (400 - 40) * 67 * 67 // 4
    crops = np.stack([train.center_crop(s.image, 67, 67) for s in samples])
    assert table == ev.rank_table_from_predictions(ev.predict(net, crops, 8), samples)


# ---------------------------------------------------------------- formatting

def _fixture_table():
    # pose 0 fully correct, pose 1 fully wrong
    samples = _grid_samples(2, [0, 1], [0])
    predictions = [s.identity if s.pose_id == 0 else 1 - s.identity for s in samples]
    return ev.rank_table_from_predictions(predictions, samples,
                                          yaws={0: -90.0, 1: 90.0})


def test_format_table_csv():
    text = ev.format_table(_fixture_table(), "csv")
    lines = text.splitlines()
    assert lines[0] == "pose_id,yaw_deg,n_samples,rank1_pct"
    assert lines[1] == "0,-90,2,100.0"
    assert lines[2] == "1,90,2,0.0"
    assert lines[3] == "mean,,,50.0"


def test_format_table_csv_empty():
    assert ev.format_table(ev.RankTable([]), "csv") == "pose_id,yaw_deg,n_samples,rank1_pct"


def test_format_table_paper_style():
    text = ev.format_table(_fixture_table(), "paper")
    top, bottom = text.splitlines()
    assert top.split() == ["Yaw", "-90", "90", "Mean"]
    assert bottom.split() == ["Rank-1", "100.00", "0.00", "50.00"]


def test_format_table_single_bin_mean():
    samples = _grid_samples(1, [0], [0])
    table = ev.rank_table_from_predictions([0], samples, yaws={0: 0.0})
    text = ev.format_table(table, "paper")
    assert text.splitlines()[1].split()[-1] == "100.00"


def test_format_table_unknown_style():
    with pytest.raises(ValueError, match="style"):
        ev.format_table(_fixture_table(), "latex")
