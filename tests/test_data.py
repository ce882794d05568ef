import hashlib
import os

import numpy as np
import pytest

from lfhn import data
from lfhn.data import LightSpec, PoseSpec


def _tree_digest(directory):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


# ---------------------------------------------------------------- templates

def test_template_determinism_and_distinctness():
    a = data.make_template(7, 0, 32, 32)
    b = data.make_template(7, 0, 32, 32)
    c = data.make_template(7, 1, 32, 32)
    assert np.array_equal(a.reflectance, b.reflectance)
    assert not np.array_equal(a.reflectance, c.reflectance)
    assert a.reflectance.min() >= 0.0 and a.reflectance.max() <= 1.0


def test_template_channel_tint():
    t = data.make_template(3, 2, 16, 16, channels=3)
    assert t.tint.shape == (3,)
    assert ((t.tint >= 0.6) & (t.tint <= 1.0)).all()


# ---------------------------------------------------------------- rendering

def test_render_identity_pose_and_unit_light_is_exact():
    t = data.make_template(1, 0, 24, 24)
    image = data.render(t, PoseSpec(0.0), LightSpec(None, ambient=1.0))
    assert np.array_equal(image[:, :, 0], t.reflectance)


def test_render_zero_reflectance_stays_zero():
    t = data.make_template(1, 0, 16, 16)
    zeroed = data.IdentityTemplate(np.zeros_like(t.reflectance), t.tint, 0)
    for light in data.default_light_roster():
        assert not data.render(zeroed, PoseSpec(30.0), light).any()


def test_lighting_is_multiplicative_before_clamping():
    t = data.make_template(2, 4, 20, 20)
    pose = PoseSpec(-30.0)
    light = data.default_light_roster()[3]
    unit = data.render(t, pose, LightSpec(None, ambient=1.0), clamp=False)
    field = data.light_field(light, 20, 20)
    lit = data.render(t, pose, light, clamp=False)
    assert np.abs(unit * field[:, :, None] - lit).max() < 1e-12


def test_light_field_range_and_positivity():
    for light in data.default_light_roster():
        field = data.light_field(light, 13, 17)
        assert field.min() >= light.ambient - 1e-12
        assert field.max() <= 1.0 + 1e-12
        assert (field > 0).all()


def test_projection_keeps_yaw_zero_exact():
    r = np.random.default_rng(0).uniform(size=(15, 15))
    assert np.array_equal(data.project(r, 0.0), r)


def test_projection_hides_far_half_beyond_45_degrees():
    r = np.ones((11, 11))
    for yaw in (60.0, 75.0, 90.0):
        posed = data.project(r, yaw)
        assert (posed == 0).any(), f"no occlusion at {yaw}"
    assert not (data.project(r, 45.0) == data.project(r, -45.0)).all()


def test_pose_roster_covers_the_yaw_grid():
    roster = data.default_pose_roster()
    assert len(roster) == 13
    assert [p.yaw_deg for p in roster] == list(range(-90, 91, 15))
    with pytest.raises(ValueError):
        PoseSpec(91.0)


# ---------------------------------------------------------------- corpus

def test_generate_corpus_counts(tmp_path):
    out = tmp_path / "corpus"
    rows = data.generate_corpus(out, 10, seed=7)
    assert len(rows) == 10 * 13 * 8
    files = [n for n in os.listdir(out) if n.endswith(".pgm")]
    assert len(files) == 1040
    manifest = (out / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "filename,identity,pose_id,light_id,yaw_deg"
    assert len(manifest) == 1041


def test_generate_corpus_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    data.generate_corpus(a, 2, seed=5)
    data.generate_corpus(b, 2, seed=5)
    assert _tree_digest(a) == _tree_digest(b)
    c = tmp_path / "c"
    data.generate_corpus(c, 2, seed=6)
    assert _tree_digest(a) != _tree_digest(c)


def test_generate_corpus_zero_identities(tmp_path):
    out = tmp_path / "empty"
    rows = data.generate_corpus(out, 0, seed=1)
    assert rows == []
    assert (out / "manifest.csv").read_text().splitlines() == [
        "filename,identity,pose_id,light_id,yaw_deg"]


def test_load_corpus_round_trips_labels(tmp_path):
    out = tmp_path / "corpus"
    rows = data.generate_corpus(out, 3, seed=9, height=24, width=24)
    samples = data.load_corpus(out)
    assert len(samples) == len(rows)
    by_name = {r["filename"]: r for r in rows}
    names = sorted(by_name)
    for name, sample in zip(names, samples):
        row = by_name[name]
        assert (sample.identity, sample.pose_id, sample.light_id) == (
            row["identity"], row["pose_id"], row["light_id"])
        assert sample.image.shape == (24, 24, 1)
        assert sample.image.dtype == np.uint8


def test_load_corpus_rejects_nonconforming_name(tmp_path):
    out = tmp_path / "corpus"
    data.generate_corpus(out, 1, seed=2, height=16, width=16)
    (out / "portrait.pgm").write_bytes(b"P5\n2 2\n255\n\x00\x01\x02\x03")
    with pytest.raises(ValueError, match="portrait.pgm"):
        data.load_corpus(out)


def test_read_image_rejects_truncated_raster(tmp_path):
    bad = tmp_path / "id000_p00_l00.pgm"
    bad.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ValueError, match="raster"):
        data.read_image(bad)


def test_image_round_trip_pgm_and_ppm(tmp_path):
    rng = np.random.default_rng(3)
    gray = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
    data.write_image(tmp_path / "g.pgm", gray)
    back = data.read_image(tmp_path / "g.pgm")
    assert back.dtype == np.uint8 and back.shape == (5, 7, 1)
    assert np.array_equal(back[:, :, 0], gray)

    color = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
    data.write_image(tmp_path / "c.ppm", color)
    back = data.read_image(tmp_path / "c.ppm")
    assert back.dtype == np.uint8
    assert np.array_equal(back, color)


def test_network_input_scales_uint8_and_passes_floats():
    pixels = np.arange(256, dtype=np.uint8).reshape(1, 16, 16, 1)
    scaled = data.network_input(pixels)
    assert scaled.dtype == np.float64
    assert np.array_equal(scaled.view(np.uint64),
                          (pixels.astype(np.float64) / 255.0).view(np.uint64))
    floats = np.random.default_rng(1).uniform(size=(2, 3, 3, 1))
    assert data.network_input(floats) is floats
    single = data.network_input(floats.astype(np.float32))
    assert single.dtype == np.float64
    assert np.array_equal(single, floats.astype(np.float32))


@pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.bool_])
def test_network_input_rejects_other_dtypes(dtype):
    with pytest.raises(ValueError, match=np.dtype(dtype).name):
        data.network_input(np.zeros((1, 2, 2, 1), dtype=dtype))


def test_three_channel_corpus_uses_ppm(tmp_path):
    out = tmp_path / "rgb"
    data.generate_corpus(out, 1, seed=4, height=16, width=16, channels=3)
    names = [n for n in os.listdir(out) if n.endswith(".ppm")]
    assert len(names) == 13 * 8
    sample = data.load_corpus(out)[0]
    assert sample.image.shape == (16, 16, 3)


# ---------------------------------------------------------------- splits

def _label_grid(n_ids=4, n_poses=5, n_lights=3):
    samples = []
    for i in range(n_ids):
        for p in range(n_poses):
            for l in range(n_lights):
                samples.append(data.LabeledSample(np.zeros((2, 2, 1)), i, p, l))
    return samples


def test_random_split_counts_and_partition():
    samples = _label_grid(8, 13, 10)  # 1040 samples
    train, test = data.split(samples, "random:0.9", seed=3)
    assert len(train) == 936 and len(test) == 104
    ids = lambda part: {id(s) for s in part}
    assert ids(train) | ids(test) == ids(samples)
    assert not (ids(train) & ids(test))


def test_random_split_deterministic_under_seed():
    samples = _label_grid()
    a = data.split(samples, "random:0.5", seed=11)
    b = data.split(samples, "random:0.5", seed=11)
    assert [id(s) for s in a[0]] == [id(s) for s in b[0]]


def test_holdout_pose_excludes_profiles_from_train():
    samples = _label_grid(n_poses=13)
    train, test = data.split(samples, "holdout-pose:0,12")
    assert all(s.pose_id not in (0, 12) for s in train)
    assert all(s.pose_id in (0, 12) for s in test)
    assert len(train) + len(test) == len(samples)


def test_holdout_defaults():
    samples = _label_grid(n_poses=5, n_lights=4)
    _, test = data.split(samples, "holdout-pose")
    assert {s.pose_id for s in test} == {0, 4}
    _, test = data.split(samples, "holdout-light")
    assert {s.light_id for s in test} == {3}


def test_split_fraction_one_warns_about_empty_test():
    samples = _label_grid(2, 2, 2)
    with pytest.warns(UserWarning, match="empty test"):
        train, test = data.split(samples, "random:1.0", seed=0)
    assert len(train) == len(samples) and not test


def test_split_unknown_protocol():
    with pytest.raises(ValueError, match="unknown split protocol"):
        data.split(_label_grid(1, 1, 1), "kfold:3")


def test_split_empty_samples():
    with pytest.raises(ValueError, match="empty"):
        data.split([], "random:0.5")
