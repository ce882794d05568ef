import hashlib
import os
import re

import numpy as np
import pytest

from lfhn import data


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
    # yaw 0 leaves the reflectance as it is, and a light only multiplies it
    t = data.make_template(1, 0, 24, 24)
    for light in data.default_light_roster():
        image = data.render(t, 0.0, light)
        assert np.array_equal(image[:, :, 0], t.reflectance * data.light_field(light, 24, 24))


def test_render_zero_reflectance_stays_zero():
    t = data.make_template(1, 0, 16, 16)
    zeroed = data.IdentityTemplate(np.zeros_like(t.reflectance), t.tint)
    for light in data.default_light_roster():
        assert not data.render(zeroed, 30.0, light).any()


def test_lighting_is_multiplicative_before_clamping():
    t = data.make_template(2, 4, 20, 20)
    yaw = -30.0
    light = data.default_light_roster()[3]
    unit = data.project(t.reflectance, yaw)[:, :, None] * t.tint
    field = data.light_field(light, 20, 20)
    lit = data.render(t, yaw, light)
    assert np.abs(unit * field[:, :, None] - lit).max() < 1e-12


def test_light_field_range_and_positivity():
    for light in data.default_light_roster():
        field = data.light_field(light, 13, 17)
        assert field.min() >= data.AMBIENT - 1e-12
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
    assert roster == tuple(float(yaw) for yaw in range(-90, 91, 15))


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


@pytest.mark.parametrize("name", ["manifest.csv", "old.pgm", "old.ppm"])
def test_generate_corpus_refuses_a_directory_holding_a_corpus_file(tmp_path, name):
    out = tmp_path / "corpus"
    out.mkdir()
    (out / name).write_bytes(b"")
    with pytest.raises(ValueError, match=re.escape(f"{out / name} exists")):
        data.generate_corpus(out, 1, seed=1, height=16, width=16)
    assert os.listdir(out) == [name]


def test_generate_corpus_writes_beside_other_files(tmp_path):
    out = tmp_path / "corpus"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    rows = data.generate_corpus(out, 1, seed=1, height=16, width=16)
    assert len(os.listdir(out)) == len(rows) + 2
    assert (out / "notes.txt").read_text() == "kept\n"


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


@pytest.mark.parametrize("w, h", [(0, 0), (-2, -3), (4, 0)])
def test_read_image_refuses_extents_below_one_naming_the_file(tmp_path, w, h):
    bad = tmp_path / "id000_p00_l00.pgm"
    # as many raster bytes as the extents multiply to, so only the extents are wrong
    bad.write_bytes(f"P5\n{w} {h}\n255\n".encode() + bytes(w * h))
    message = f"{bad}: image extents {w}x{h} must be >= 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        data.read_image(bad)


@pytest.mark.parametrize("header", [b"P5\n4", b"P5\n4 x\n255\n"])
def test_read_image_names_the_file_on_a_bad_header(tmp_path, header):
    bad = tmp_path / "id000_p00_l00.pgm"
    bad.write_bytes(header)
    with pytest.raises(ValueError, match=re.escape(f"{bad}: bad image header")):
        data.read_image(bad)


@pytest.mark.parametrize("numbers", [b"1_0 1 255", b"+4 1 255", b"4 1 2_55", b"4 \xd9\xa1 255"])
def test_read_image_refuses_header_numbers_that_are_not_plain_digits(tmp_path, numbers):
    bad = tmp_path / "id000_p00_l00.pgm"
    # 10 raster bytes: enough for any extent that int() would read from these headers
    bad.write_bytes(b"P5\n" + numbers + b"\n" + bytes(10))
    with pytest.raises(ValueError, match=re.escape(f"{bad}: bad image header")):
        data.read_image(bad)


@pytest.mark.parametrize("blob, message", [
    # a header whose height byte was damaged from 6 to 2: the raster is too long
    (b"P5\n1 2\n255\n" + bytes(6), "raster holds 6 bytes, expected 2"),
    (b"P5\n# a comment\n1 2\n255\n" + bytes(2), "bad image header"),
    (b"P5\n01 2\n255\n" + bytes(2), "bad image header"),
    (b"P5\n1\t2\n255\n" + bytes(2), "bad image header"),
    (b"P5\r\n1 2\r\n255\r\n" + bytes(2), "bad image header"),
    (b"P5\n1 2\n255 " + bytes(2), "bad image header"),
    (b"P5\n1 2\n65535\n" + bytes(4), "bad image header"),
])
def test_read_image_refuses_any_header_or_length_that_write_image_does_not_write(
        tmp_path, blob, message):
    bad = tmp_path / "id000_p00_l00.pgm"
    bad.write_bytes(blob)
    with pytest.raises(ValueError, match=re.escape(f"{bad}: {message}")):
        data.read_image(bad)


def _rewritten(path, image):
    """The bytes write_image writes at path for an (h, w, c) image of read_image's."""
    data.write_image(path, image[:, :, 0] if image.shape[2] == 1 else image)
    return path.read_bytes()


# replacement bytes for the read_image scan: NUL, the whitespace bytes, the
# comment mark, the signs and "_" that int() accepts, digits, the magic's "P",
# DEL, and bytes that are never ASCII
IMAGE_MUTATION_VALUES = b"\x00\t\n\x0b\r #+-_0159P\x7f\x80\xff"
# a small P5 and a small P6 image
SMALL_IMAGES = (("pgm", np.arange(6, dtype=np.uint8).reshape(2, 3)),
                ("ppm", np.arange(6, dtype=np.uint8).reshape(1, 2, 3)))


def _cuts_and_edits(blob, pixels):
    """Every truncation of an image file, and every edit of a header byte or
    of the first two raster bytes to a value of IMAGE_MUTATION_VALUES."""
    cases = [blob[:n] for n in range(len(blob))]
    for i in range(len(blob) - pixels.size + 2):
        cases += [blob[:i] + bytes([v]) + blob[i + 1:]
                  for v in IMAGE_MUTATION_VALUES if v != blob[i]]
    return cases


def test_read_image_loads_or_names_the_file_after_any_byte_edit_or_cut(tmp_path):
    """Every case of _cuts_and_edits, of a small P5 and a small P6 file,
    either loads as (h, w, c) uint8 that write_image writes back to the same
    bytes, or raises ValueError naming the file."""
    outcomes = {"loaded": 0, "refused": 0}
    for ext, pixels in SMALL_IMAGES:
        path = tmp_path / f"image.{ext}"
        data.write_image(path, pixels)
        for case in _cuts_and_edits(path.read_bytes(), pixels):
            path.write_bytes(case)
            try:
                image = data.read_image(path)
            except ValueError as err:
                assert str(err).startswith(f"{path}: "), (case, err)
                outcomes["refused"] += 1
                continue
            assert image.dtype == np.uint8 and image.ndim == 3, case
            assert image.shape[2] == (1 if case.startswith(b"P5") else 3), case
            assert _rewritten(tmp_path / f"rewritten.{ext}", image) == case, case
            outcomes["loaded"] += 1
    assert sum(outcomes.values()) == 484 and min(outcomes.values()) > 0, outcomes


def test_load_corpus_loads_or_names_the_file_after_any_byte_edit_or_cut(tmp_path):
    """Every case of _cuts_and_edits, in either file of a two-file P5 or P6
    corpus, either loads both images at one shape with their filename labels,
    each of which write_image writes back to its file's bytes, or raises
    ValueError naming the damaged file."""
    outcomes = {"loaded": 0, "refused": 0}
    for ext, pixels in SMALL_IMAGES:
        corpus = tmp_path / ext
        corpus.mkdir()
        paths = [corpus / f"id{i}_p{i}_l{i}.{ext}" for i in (0, 1)]
        for path in paths:
            data.write_image(path, pixels)
        blob = paths[0].read_bytes()
        for path in paths:
            for case in _cuts_and_edits(blob, pixels):
                path.write_bytes(case)
                try:
                    samples = data.load_corpus(corpus)
                except ValueError as err:
                    assert path.name in str(err), (case, err)
                    outcomes["refused"] += 1
                    continue
                assert [(s.identity, s.pose_id, s.light_id) for s in samples] == [
                    (0, 0, 0), (1, 1, 1)], case
                assert samples[0].image.shape == samples[1].image.shape, case
                assert {s.image.dtype for s in samples} == {np.dtype(np.uint8)}, case
                for sample, stored in zip(samples, paths):
                    rewritten = _rewritten(tmp_path / f"rewritten.{ext}", sample.image)
                    assert rewritten == stored.read_bytes(), case
                outcomes["loaded"] += 1
            path.write_bytes(blob)
    assert sum(outcomes.values()) == 968 and min(outcomes.values()) > 0, outcomes


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


def test_split_unknown_protocol():
    with pytest.raises(ValueError, match="unknown split protocol"):
        data.split(_label_grid(1, 1, 1), "kfold:3")


@pytest.mark.parametrize("protocol", ["holdout-light:a", "holdout-pose:1,,2", "random:abc"])
def test_split_names_the_protocol_whose_numbers_do_not_parse(protocol):
    with pytest.raises(ValueError, match=re.escape(f"split {protocol!r}: ")):
        data.split(_label_grid(), protocol)


def test_split_empty_samples():
    with pytest.raises(ValueError, match="empty"):
        data.split([], "random:0.5")
