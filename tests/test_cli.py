import hashlib
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lfhn import cli, data, graph, layers


def _digest(directory):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


@pytest.fixture()
def small_corpus(tmp_path):
    out = tmp_path / "corpus"
    assert cli.main(["gen-data", "--ids", "2", "--out", str(out),
                     "--size", "35", "--seed", "5"]) == 0
    return out


# ---------------------------------------------------------------- gen-data

def test_gen_data_writes_corpus_and_manifest(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc = cli.main(["gen-data", "--ids", "2", "--out", str(out),
                   "--size", "24", "--seed", "7"])
    assert rc == 0
    assert "wrote 208 images" in capsys.readouterr().out
    assert sorted(os.listdir(out))[-1] == "manifest.csv"
    assert len([n for n in os.listdir(out) if n.endswith(".pgm")]) == 2 * 13 * 8


def test_gen_data_requires_out():
    with pytest.raises(SystemExit) as err:
        cli.main(["gen-data", "--ids", "2"])
    assert err.value.code == 2


@pytest.mark.parametrize("flag,value", [("--ids", "0"), ("--ids", "-1"),
                                        ("--lights", "0"), ("--lights", "-2"),
                                        ("--size", "0"), ("--size", "-5")])
def test_gen_data_extents_below_one_exit_2_writing_nothing(tmp_path, capsys, flag, value):
    out = tmp_path / "corpus"
    argv = ["gen-data", "--ids", "2", "--out", str(out), flag, value]
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        cli.main(["gen-data", "--ids", "1", "--out", str(out),
                  "--size", "24", "--seed", "3"])
    assert _digest(a) == _digest(b)


def test_gen_data_into_an_existing_corpus_exits_2_leaving_it_unchanged(tmp_path, capsys):
    # a second run's images would sit beside the first's, which load_corpus reads too
    out = tmp_path / "corpus"
    assert cli.main(["gen-data", "--ids", "3", "--out", str(out), "--size", "16"]) == 0
    before = _digest(out)
    capsys.readouterr()
    assert cli.main(["gen-data", "--ids", "2", "--out", str(out), "--size", "16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'id000_p00_l00.pgm'} exists")
    assert err.count("\n") == 1
    assert _digest(out) == before


# ---------------------------------------------------------------- shapes

def test_shapes_default_trace(capsys):
    assert cli.main(["shapes"]) == 0
    out = capsys.readouterr().out
    for token in ("227x227x3", "55x55x96", "27x27x96", "27x27x400",
                  "27x27x300", "27x27x700", "27x27x500"):
        assert token in out, f"missing {token}"


def test_shapes_scaled_input(capsys):
    assert cli.main(["shapes", "--input", "67x67x3"]) == 0
    out = capsys.readouterr().out
    assert "15x15x96" in out and "7x7x96" in out


def test_shapes_invalid_config_names_node(capsys):
    rc = cli.main(["shapes", "--input", "8x8x3"])
    assert rc == 2
    assert "conv1" in capsys.readouterr().err


def test_shapes_bad_input_flag(capsys):
    assert cli.main(["shapes", "--input", "bogus"]) == 2


# ---------------------------------------------------------------- gradcheck

def test_gradcheck_passes_on_healthy_build(capsys):
    rc = cli.main(["gradcheck", "--samples", "6", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK: max relative error" in out
    assert "conv1.kernel" in out


def test_gradcheck_layer_filter(capsys):
    rc = cli.main(["gradcheck", "--samples", "4", "--layer", "fc"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fc" in out and "conv2.kernel" not in out


def test_gradcheck_conv1_checks_exactly_the_root_conv(capsys):
    rc = cli.main(["gradcheck", "--samples", "4", "--layer", "conv1"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert [line.split()[0] for line in out[:-1]] == ["conv1.kernel", "conv1.bias"]
    assert out[-1].startswith("OK: ")


def test_gradcheck_unknown_layer(capsys):
    assert cli.main(["gradcheck", "--layer", "bogus"]) == 2


def test_gradcheck_detects_corrupted_backward(monkeypatch, capsys):
    def lopsided(x, grad_out, size, k, alpha, beta):
        s = k + (alpha / size) * layers._window_sum_channels(x * x, size // 2)
        return grad_out * s ** (-beta)

    monkeypatch.setattr(layers, "lrn_backward", lopsided)
    rc = cli.main(["gradcheck", "--samples", "8", "--seed", "1"])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().out


def test_gradcheck_fails_on_nan_backward(monkeypatch, capsys):
    lrn_backward = layers.lrn_backward
    monkeypatch.setattr(layers, "lrn_backward",
                        lambda *a, **kw: lrn_backward(*a, **kw) * np.nan)
    assert cli.main(["gradcheck", "--samples", "4", "--seed", "1"]) == 1
    assert "FAILED: max relative error inf" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--samples", "0"], ["--samples", "-1"],
                                   ["--epsilon", "0"], ["--epsilon", "nan"],
                                   ["--tol", "nan"], ["--tol", "-1"], ["--tol", "0"],
                                   ["--tol", "inf"]])
def test_gradcheck_rejects_settings_that_check_nothing(flags, capsys):
    assert cli.main(["gradcheck", *flags]) == 2
    out = capsys.readouterr()
    assert "error:" in out.err and "FAILED" not in out.out


# ---------------------------------------------------------------- train / eval

def test_train_then_eval_round_trip(tmp_path, small_corpus, capsys):
    model = tmp_path / "model.lfhn"
    rc = cli.main(["train", "--data", str(small_corpus), "--out", str(model),
                   "--epochs", "2", "--lr", "0.01", "--seed", "3"])
    assert rc == 0
    assert model.exists()
    log = (tmp_path / "model.lfhn.log.csv").read_text().splitlines()
    assert log[0] == "epoch,mean_loss,train_acc"
    assert len(log) == 3
    capsys.readouterr()

    table_csv = tmp_path / "table.csv"
    rc = cli.main(["eval", "--model", str(model), "--data", str(small_corpus),
                   "--style", "csv", "--out", str(table_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "pose_id,yaw_deg,n_samples,rank1_pct"
    assert out.splitlines()[-1].startswith("mean,,,")
    assert table_csv.read_text().splitlines()[0] == "pose_id,yaw_deg,n_samples,rank1_pct"


def test_eval_paper_style_and_split(tmp_path, small_corpus, capsys):
    model = tmp_path / "model.lfhn"
    cli.main(["train", "--data", str(small_corpus), "--out", str(model),
              "--epochs", "1", "--seed", "3"])
    capsys.readouterr()
    rc = cli.main(["eval", "--model", str(model), "--data", str(small_corpus),
                   "--split", "holdout-light:7", "--style", "paper"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[0] == "Yaw"
    assert out[0].split()[-1] == "Mean"
    assert out[1].split()[0] == "Rank-1"


def test_eval_lists_absent_pose_bins_on_one_line(tmp_path, small_corpus, capsys):
    model = tmp_path / "model.lfhn"
    cli.main(["train", "--data", str(small_corpus), "--out", str(model),
              "--epochs", "1", "--seed", "3"])
    capsys.readouterr()
    rc = cli.main(["eval", "--model", str(model), "--data", str(small_corpus),
                   "--split", "holdout-pose:0,12"])
    assert rc == 0
    captured = capsys.readouterr()
    absent = ", ".join(str(p) for p in range(1, 12))
    assert captured.err.splitlines() == [
        f"note: pose bins {absent} have no samples; excluded from the mean"]
    assert [line.split(",")[0] for line in captured.out.splitlines()] == [
        "pose_id", "0", "12", "mean"]


def test_eval_split_that_leaves_nothing_exits_3_with_one_error_line(tmp_path, small_corpus,
                                                                   capsys):
    model = tmp_path / "model.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=0), model)
    rc = cli.main(["eval", "--model", str(model), "--data", str(small_corpus),
                   "--split", "holdout-light:99"])
    assert rc == 3
    assert capsys.readouterr().err == "error: split 'holdout-light:99' left nothing to evaluate\n"


def test_eval_split_whose_ids_do_not_parse_exits_2_naming_the_split(tmp_path, small_corpus,
                                                                   capsys):
    model = tmp_path / "model.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=0), model)
    rc = cli.main(["eval", "--model", str(model), "--data", str(small_corpus),
                   "--split", "holdout-light:a"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: split 'holdout-light:a': invalid literal for int() with base 10: 'a'\n")


@pytest.mark.parametrize("protocol, reason", [
    ("holdout-light:a", "invalid literal for int() with base 10: 'a'"),
    ("random:abc", "could not convert string to float: 'abc'"),
    ("random:2", "fraction 2.0 outside [0, 1]"),
    ("leave-one-out", "unknown split protocol 'leave-one-out'"),
])
def test_eval_refuses_a_split_that_does_not_parse_before_reading_the_checkpoint(
        tmp_path, capsys, protocol, reason):
    model = tmp_path / "model.lfhn"
    model.write_bytes(b"not a checkpoint")
    rc = cli.main(["eval", "--model", str(model), "--data", str(tmp_path / "absent"),
                   "--split", protocol])
    assert rc == 2
    assert capsys.readouterr().err == f"error: split {protocol!r}: {reason}\n"


def test_train_without_augment_center_crops_a_larger_corpus_as_eval_does(tmp_path,
                                                                         small_corpus):
    """A 27x27 network trains on the 35x35 corpus's centers: its checkpoint is
    the one trained on those centers cut out by hand, and eval scores it."""
    run_config = tmp_path / "run.cfg"
    run_config.write_text("input_height = 27\ninput_width = 27\nroot_channels = 4\n"
                          "streams = 4|4\npost_concat_channels = 4\nfc_hidden = 8\n")
    centers = tmp_path / "centers"
    centers.mkdir()
    for name in os.listdir(small_corpus):
        if name.endswith(".pgm"):
            image = data.read_image(small_corpus / name)
            data.write_image(centers / name, image[4:31, 4:31, 0])
    models = []
    for corpus in (small_corpus, centers):
        models.append(tmp_path / f"{corpus.name}.lfhn")
        assert cli.main(["train", "--data", str(corpus), "--out", str(models[-1]),
                         "--config", str(run_config), "--epochs", "1"]) == 0
    assert models[0].read_bytes() == models[1].read_bytes()
    assert cli.main(["eval", "--model", str(models[0]), "--data", str(small_corpus)]) == 0


def test_train_on_mixed_shape_corpus_exits_3_naming_the_file(tmp_path, small_corpus, capsys):
    big = tmp_path / "big"
    assert cli.main(["gen-data", "--ids", "3", "--out", str(big),
                     "--size", "67", "--seed", "5"]) == 0
    odd = "id002_p00_l00.pgm"  # sorts after every file of the 2-identity 35x35 corpus
    (small_corpus / odd).write_bytes((big / odd).read_bytes())
    capsys.readouterr()
    rc = cli.main(["train", "--data", str(small_corpus), "--out", str(tmp_path / "model.lfhn"),
                   "--epochs", "1"])
    assert rc == 3
    assert odd in capsys.readouterr().err
    assert not (tmp_path / "model.lfhn").exists()


@pytest.mark.parametrize("extents", ["0 0", "-2 -3"])
def test_train_on_image_with_extents_below_one_exits_3_naming_the_file(tmp_path, capsys,
                                                                       extents):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    bad = corpus / "id000_p00_l00.pgm"
    w, h = map(int, extents.split())
    bad.write_bytes(f"P5\n{extents}\n255\n".encode() + bytes(w * h))
    rc = cli.main(["train", "--data", str(corpus), "--out", str(tmp_path / "model.lfhn"),
                   "--epochs", "1"])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: image extents"), err


def test_train_on_corpus_with_a_truncated_file_exits_3_naming_it(tmp_path, small_corpus,
                                                                 capsys):
    cut = small_corpus / "id001_p06_l03.pgm"
    cut.write_bytes(cut.read_bytes()[:-1])
    capsys.readouterr()
    rc = cli.main(["train", "--data", str(small_corpus), "--out", str(tmp_path / "model.lfhn"),
                   "--epochs", "1"])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {cut}: raster holds 1224 bytes, expected 1225"]
    assert not (tmp_path / "model.lfhn").exists()


@pytest.mark.parametrize("identity, reason", [
    # fc7.weight would be 512 x 2000000001 float64, 7.45 TiB: numpy raises MemoryError
    (2_000_000_000, "Unable to allocate 7.45 TiB"),
    # an extent past the largest array dimension: numpy raises ValueError
    (99_999_999_999_999_999_999, "Maximum allowed dimension exceeded"),
], ids=["memory", "dimension"])
def test_train_on_a_huge_identity_id_exits_2_naming_the_inferred_class_count(
        tmp_path, capsys, identity, reason):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    data.write_image(corpus / f"id{identity}_p00_l00.pgm", np.zeros((35, 35), np.uint8))
    model = tmp_path / "model.lfhn"
    rc = cli.main(["train", "--data", str(corpus), "--out", str(model), "--epochs", "1"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: cannot build the network for {identity + 1} classes, "
                             "inferred from the corpus's largest identity id "
                             f"{identity}: {reason}"), err
    assert not model.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_divergent_training_exits_1_without_checkpoint(tmp_path, small_corpus, capsys):
    model = tmp_path / "model.lfhn"
    rc = cli.main(["train", "--data", str(small_corpus), "--out", str(model),
                   "--epochs", "3", "--lr", "50", "--seed", "3"])
    assert rc == 1
    assert "diverged" in capsys.readouterr().err
    assert not model.exists()
    assert not (tmp_path / "model.lfhn.log.csv").exists()


def _refuse_to_load(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("data loaded before the output paths were checked")

    monkeypatch.setattr(data, "load_corpus", refuse)
    monkeypatch.setattr(graph, "load_checkpoint", refuse)


@pytest.mark.parametrize("out, log", [("missing/m.lfhn", None),
                                      ("model.lfhn", "missing/x.csv"),
                                      (".", None)])  # the directory itself
def test_train_unwritable_output_exits_2_before_loading_data(tmp_path, small_corpus,
                                                             capsys, monkeypatch, out, log):
    args = ["train", "--data", str(small_corpus), "--out", str(tmp_path / out),
            "--epochs", "1"]
    if log is not None:
        args += ["--log", str(tmp_path / log)]
    _refuse_to_load(monkeypatch)
    capsys.readouterr()
    assert cli.main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(tmp_path / (log or out)) in err[0]
    assert not (tmp_path / "model.lfhn").exists() and not (tmp_path / "missing").exists()


def test_eval_unwritable_table_exits_2_before_loading(tmp_path, small_corpus, capsys,
                                                      monkeypatch):
    model = tmp_path / "model.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=0), model)
    _refuse_to_load(monkeypatch)
    capsys.readouterr()
    rc = cli.main(["eval", "--model", str(model), "--data", str(small_corpus),
                   "--out", str(tmp_path / "missing" / "t.csv")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "missing" in err[0]


@pytest.mark.parametrize("extra, config, message", [
    (["--log", "{d}/./m.lfhn"], "", "epoch log {d}/./m.lfhn is also the checkpoint {d}/m.lfhn"),
    ([], "log = {d}/m.lfhn\n", "epoch log {d}/m.lfhn is also the checkpoint {d}/m.lfhn"),
    (["--log", "{d}/run.cfg"], "", "epoch log {d}/run.cfg is also the run config {d}/run.cfg"),
    (["--root-from", "{d}/m.lfhn"], "",
     "checkpoint {d}/m.lfhn is also the root donor {d}/m.lfhn"),
], ids=["log", "config-log", "log-is-config", "out-is-root-from"])
def test_train_output_naming_an_input_or_the_other_output_exits_2_before_loading(
        tmp_path, small_corpus, capsys, monkeypatch, extra, config, message):
    d = tmp_path
    (d / "run.cfg").write_text(config.format(d=d))
    (d / "m.lfhn").write_bytes(b"kept")
    _refuse_to_load(monkeypatch)
    capsys.readouterr()
    rc = cli.main(["train", "--data", str(small_corpus), "--out", f"{d}/m.lfhn",
                   "--config", f"{d}/run.cfg", "--epochs", "1"]
                  + [arg.format(d=d) for arg in extra])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message.format(d=d)}"]
    assert (d / "m.lfhn").read_bytes() == b"kept"
    assert (d / "run.cfg").read_text() == config.format(d=d)


@pytest.mark.parametrize("command, what, path", [
    ("train", "checkpoint", "{c}/id000_p00_l00.pgm"),
    ("train", "epoch log", "{c}/log.ppm"),
    ("eval", "table", "{c}/../corpus/table.pgm"),
    ("eval", "table", "{t}/link.csv"),
], ids=["checkpoint", "log", "table", "table-link"])
def test_an_output_that_the_corpus_reads_exits_2_before_loading(
        tmp_path, small_corpus, capsys, monkeypatch, command, what, path):
    model = tmp_path / "model.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=0), model)
    (tmp_path / "link.csv").symlink_to(small_corpus / "id001_p00_l00.pgm")
    path = path.format(c=small_corpus, t=tmp_path)
    digest = _digest(small_corpus)
    _refuse_to_load(monkeypatch)
    capsys.readouterr()
    if command == "train":
        args = ["train", "--data", str(small_corpus), "--epochs", "1",
                *(["--out", path] if what == "checkpoint" else
                  ["--out", str(tmp_path / "m.lfhn"), "--log", path])]
    else:
        args = ["eval", "--model", str(model), "--data", str(small_corpus), "--out", path]
    assert cli.main(args) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {what} {path} is an image of the corpus {small_corpus}"]
    assert _digest(small_corpus) == digest


def test_eval_table_naming_the_checkpoint_exits_2_before_loading(tmp_path, small_corpus,
                                                                 capsys, monkeypatch):
    model = tmp_path / "model.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=0), model)
    saved = model.read_bytes()
    link = tmp_path / "link.csv"
    link.symlink_to(model)
    _refuse_to_load(monkeypatch)
    capsys.readouterr()
    rc = cli.main(["eval", "--model", str(model), "--data", str(small_corpus),
                   "--out", str(link)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: table {link} is also the checkpoint {model}"]
    assert model.read_bytes() == saved


def test_a_failed_write_exits_2_with_one_error_line(tmp_path, small_corpus, capsys,
                                                    monkeypatch):
    # a path that passes the early check but fails when written, as when the
    # directory goes away during the run
    monkeypatch.setattr(cli, "_check_output_path", lambda path, what: None)
    model = tmp_path / "model.lfhn"
    missing = tmp_path / "missing"
    rc = cli.main(["train", "--data", str(small_corpus), "--out", str(missing / "m.lfhn"),
                   "--epochs", "1", "--log", str(tmp_path / "log.csv")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(missing) in err[0]
    assert cli.main(["train", "--data", str(small_corpus), "--out", str(model),
                     "--epochs", "1"]) == 0
    capsys.readouterr()
    rc = cli.main(["eval", "--model", str(model), "--data", str(small_corpus),
                   "--out", str(missing / "t.csv")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(missing) in err[0]


def test_a_failed_checkpoint_write_leaves_no_epoch_log(tmp_path, small_corpus, capsys,
                                                      monkeypatch):
    def fail(src, dst):
        raise PermissionError(13, "Permission denied", src, None, dst)

    monkeypatch.setattr(graph.os, "replace", fail)
    model = tmp_path / "model.lfhn"
    log = tmp_path / "log.csv"
    rc = cli.main(["train", "--data", str(small_corpus), "--out", str(model),
                   "--epochs", "1", "--log", str(log)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: checkpoint {model}: Permission denied"]
    assert sorted(os.listdir(tmp_path)) == ["corpus"]


def test_eval_class_count_mismatch_exits_3(tmp_path, small_corpus, capsys):
    model = tmp_path / "model.lfhn"
    cfg = replace(graph.tiny_config(num_classes=1),
                  input_height=35, input_width=35, input_channels=1,
                  root_kernel=3, root_stride=2)
    net = graph.build_lfhn(cfg, seed=0)
    graph.save_checkpoint(net, model)
    rc = cli.main(["eval", "--model", str(model), "--data", str(small_corpus)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "trained for 1 classes" in err and "identity 1" in err


def test_eval_rejects_corrupt_model(tmp_path, small_corpus):
    model = tmp_path / "junk.lfhn"
    model.write_bytes(b"JUNKJUNKJUNK")
    assert cli.main(["eval", "--model", str(model), "--data", str(small_corpus)]) == 2


@pytest.mark.parametrize("old, new", [(b"input_height=8", b"input_height=9"),
                                      (b"input_height", b"\xffnput_height"),
                                      (b"frozen=", b"bogus=1\nfrozen="),
                                      (b"frozen=", b"lrn_k=3.0\nfrozen="),
                                      (b"frozen=", b"frozen=conv99")])
def test_eval_rejects_malformed_config_block_with_one_error_line(tmp_path, small_corpus,
                                                                 capsys, old, new):
    model = tmp_path / "model.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=0), model)
    blob = model.read_bytes()
    assert blob.count(old) == 1
    # the config block follows the magic, the version and its own length
    length = int.from_bytes(blob[8:12], "little")
    text = blob[12:12 + length].replace(old, new)
    model.write_bytes(blob[:8] + len(text).to_bytes(4, "little") + text + blob[12 + length:])
    capsys.readouterr()
    rc = cli.main(["eval", "--model", str(model), "--data", str(small_corpus)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_eval_refuses_a_rank_past_the_end_of_the_file_with_one_error_line(tmp_path,
                                                                          small_corpus, capsys):
    model = tmp_path / "model.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=0), model)
    blob = bytearray(model.read_bytes())
    # the high byte of conv1.kernel's rank: 0xF7 makes the rank 4,143,972,356
    high = blob.index(b"conv1.kernel") + len(b"conv1.kernel") + 3
    assert blob[high] == 0
    blob[high] = 0xF7
    model.write_bytes(bytes(blob))
    capsys.readouterr()
    rc = cli.main(["eval", "--model", str(model), "--data", str(small_corpus)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: record header is not that of conv1.kernel (2, 2, 3, 4), "
                   "which the config implies"], err


def test_train_lr_zero_leaves_parameters_at_init(tmp_path, small_corpus):
    model = tmp_path / "model.lfhn"
    rc = cli.main(["train", "--data", str(small_corpus), "--out", str(model),
                   "--epochs", "1", "--lr", "0", "--seed", "9"])
    assert rc == 0
    loaded = graph.load_checkpoint(model)
    fresh = graph.build_lfhn(loaded.config, seed=9)
    for name in fresh.params:
        assert np.array_equal(loaded.params[name], fresh.params[name])


def test_train_freeze_root_without_weights_warns(tmp_path, small_corpus, capsys):
    model = tmp_path / "model.lfhn"
    rc = cli.main(["train", "--data", str(small_corpus), "--out", str(model),
                   "--epochs", "1", "--freeze-root", "--seed", "2"])
    assert rc == 0
    assert "freeze_root" in capsys.readouterr().err
    assert graph.load_checkpoint(model).frozen == {"conv1"}


# small widths over small_corpus's 35x35x1 images
SMALL_RUN_CONFIG = ("root_channels = 8\nstreams = 8,8|8\npost_concat_channels = 8\n"
                    "fc_hidden = 16\n")


def test_train_root_from_starts_and_keeps_the_donors_conv1(tmp_path, small_corpus, capsys,
                                                            monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # restored after --threads sets it
    run_config = tmp_path / "run.cfg"
    run_config.write_text(SMALL_RUN_CONFIG)
    donor, model = tmp_path / "a.lfhn", tmp_path / "b.lfhn"
    common = ["train", "--data", str(small_corpus), "--config", str(run_config), "--epochs", "1"]
    assert cli.main(common + ["--out", str(donor), "--seed", "3"]) == 0
    capsys.readouterr()
    assert cli.main(common + ["--out", str(model), "--seed", "4", "--root-from", str(donor),
                              "--freeze-root", "--threads", "1"]) == 0
    assert "warning" not in capsys.readouterr().err
    a, b = graph.load_checkpoint(donor), graph.load_checkpoint(model)
    fresh = graph.build_lfhn(b.config, seed=4)
    assert b.frozen == {"conv1"} and a.config == b.config
    for name in ("conv1.kernel", "conv1.bias"):
        assert b.params[name].tobytes() == a.params[name].tobytes()
    assert b.params["conv1.kernel"].tobytes() != fresh.params["conv1.kernel"].tobytes()


def test_train_refuses_a_donor_of_another_root_shape_exit_3(tmp_path, small_corpus, capsys):
    run_config = tmp_path / "run.cfg"
    run_config.write_text(SMALL_RUN_CONFIG)
    donor, model = tmp_path / "a.lfhn", tmp_path / "b.lfhn"
    cfg = graph.LfhnConfig(input_height=35, input_width=35, input_channels=1, root_channels=4,
                           streams=((8,),), post_concat_channels=8, fc_hidden=16, num_classes=2)
    graph.save_checkpoint(graph.build_lfhn(cfg, seed=0), donor)
    capsys.readouterr()
    rc = cli.main(["train", "--data", str(small_corpus), "--out", str(model), "--config",
                   str(run_config), "--epochs", "1", "--root-from", str(donor)])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: root_from {donor}: conv1.kernel is (11, 11, 1, 4), "
        "but this run's is (11, 11, 1, 8)"]
    assert not model.exists()


# tiny_config's architecture as run-config lines; the corpus sets the input
TINY_RUN_CONFIG = ("root_kernel = 2\nroot_channels = 4\nroot_stride = 1\nstreams = 4,6|5\n"
                   "post_concat_channels = 5\nfc_hidden = 8\nnum_classes = 3\n"
                   "lrn_size = 3\nlrn_alpha = 0.01\n")


@pytest.fixture()
def tiny_corpus(tmp_path):
    """Two 8x8x3 images, the input of tiny_config."""
    out = tmp_path / "tiny"
    out.mkdir()
    for i in (0, 1):
        data.write_image(out / f"id{i}_p0_l0.ppm",
                         np.full((8, 8, 3), 40 * i, dtype=np.uint8))
    return out


def _exit_0_or_2_3_with_one_error_line(argv, capsys):
    rc = cli.main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 0 or (rc in (2, 3) and len(err) == 1 and err[0].startswith("error: ")), \
        (rc, err)
    return rc


def test_train_on_a_cut_or_edited_donor_never_exits_1(tmp_path, capsys, tiny_corpus):
    run_config = tmp_path / "run.cfg"
    run_config.write_text(TINY_RUN_CONFIG)
    donor = tmp_path / "a.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=31), donor)
    blob = donor.read_bytes()
    cuts = [blob[:n] for n in (*range(0, len(blob), 61), len(blob) - 1)]
    edits = [blob[:i] + bytes([v]) + blob[i + 1:]
             for i in (0, 5, 12, blob.index(b"root_channels=") + 14, blob.index(b"fc_hidden=") + 10,
                       blob.index(b"conv1.kernel") - 1, len(blob) - 1)
             for v in (0x00, 0x33, 0xFF) if v != blob[i]]
    codes = []
    for case in cuts + edits:
        donor.write_bytes(case)
        codes.append(_exit_0_or_2_3_with_one_error_line(
            ["train", "--data", str(tiny_corpus), "--out", str(tmp_path / "m.lfhn"),
             "--config", str(run_config), "--epochs", "0", "--root-from", str(donor)],
            capsys))
    assert codes[:len(cuts)] == [3] * len(cuts)
    assert set(codes[len(cuts):]) == {0, 3}


def test_eval_on_a_cut_or_edited_corpus_file_never_exits_1(tmp_path, capsys, tiny_corpus):
    model = tmp_path / "model.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=32), model)
    image = tiny_corpus / "id1_p0_l0.ppm"
    blob = image.read_bytes()
    header = len(blob) - 8 * 8 * 3
    cases = [blob[:n] for n in (*range(header + 2), len(blob) - 1)]
    cases += [blob[:i] + bytes([v]) + blob[i + 1:] for i in range(header + 2)
              for v in b"\x00 #9\xff" if v != blob[i]]
    codes = set()
    for case in cases:
        image.write_bytes(case)
        codes.add(_exit_0_or_2_3_with_one_error_line(
            ["eval", "--model", str(model), "--data", str(tiny_corpus)], capsys))
    assert codes == {0, 3}


# ---------------------------------------------------------------- config files

def test_config_file_unknown_key(tmp_path, small_corpus):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("learning_rate = 0.1\n")
    rc = cli.main(["train", "--data", str(small_corpus),
                   "--out", str(tmp_path / "m.lfhn"), "--config", str(cfg)])
    assert rc == 2


@pytest.mark.parametrize("key", ["out", "data", "root_weights"])
def test_config_file_path_flags_are_not_keys(tmp_path, small_corpus, capsys, key):
    # --out and --data are required flags, so a file value could only be
    # ignored; root_from replaced root_weights, so an old run config fails loudly
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {tmp_path / 'fromfile'}\n")
    model = tmp_path / "flag.lfhn"
    rc = cli.main(["train", "--data", str(small_corpus), "--out", str(model),
                   "--config", str(cfg), "--epochs", "1"])
    assert rc == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not model.exists() and not (tmp_path / "fromfile").exists()


BAD_CONFIG_LINES = ["lr = nan", "lr = inf", "lr_decay_every = -1", "lr_decay_factor = 0",
                    "lr_decay_factor = -0.5", "lrn_k = nan", "lrn_alpha = inf", "lrn_beta = inf"]


@pytest.mark.parametrize("line", BAD_CONFIG_LINES)
def test_config_file_bad_value_exits_2_before_training(tmp_path, small_corpus, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    model = tmp_path / "m.lfhn"
    rc = cli.main(["train", "--data", str(small_corpus), "--out", str(model),
                   "--config", str(cfg), "--epochs", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    key = line.partition(" ")[0]
    if key.startswith("lrn_"):
        assert err.startswith(f"error: {key} must be finite")
    assert not model.exists() and not (tmp_path / "m.lfhn.log.csv").exists()


@pytest.mark.parametrize("line", BAD_CONFIG_LINES)
def test_shapes_config_bad_value_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert cli.main(["shapes", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("line, message", [
    ("lr = nan", "lr must be a finite learning rate >= 0, got nan"),
    ("momentum = 1.5", "momentum must be in [0, 1), got 1.5"),
    ("batch_size = 0", "batch_size must be >= 1, got 0"),
    ("epochs = -1", "epochs must be >= 0, got -1"),
    ("lr_decay_every = -1", "lr_decay_every must be >= 0, got -1"),
])
def test_run_config_refusal_names_the_key_and_the_value(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert cli.main(["shapes", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_file_repeated_key_exits_2(tmp_path, small_corpus, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lr = 0.5\nepochs = 1\nlr = 0.01\n")
    with pytest.raises(cli.ConfigError, match=f"{cfg}:3: config key 'lr' given twice"):
        cli.parse_config_file(cfg)
    model = tmp_path / "m.lfhn"
    rc = cli.main(["train", "--data", str(small_corpus), "--out", str(model),
                   "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg}:3: config key 'lr' given twice\n"
    assert not model.exists()
    assert cli.main(["shapes", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command", ["shapes", "train"])
def test_config_file_that_is_not_utf8_exits_2_naming_the_file(tmp_path, small_corpus, capsys,
                                                              command):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"lr = 0.5\n\xff\n")
    with pytest.raises(cli.ConfigError, match=f"{cfg}: not UTF-8 text"):
        cli.parse_config_file(cfg)
    model = tmp_path / "m.lfhn"
    argv = {"shapes": ["shapes"],
            "train": ["train", "--data", str(small_corpus), "--out", str(model)]}[command]
    assert cli.main(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cfg}: not UTF-8 text"), err
    assert not model.exists()


# pieces of run config text, valid and not, that random bytes rarely produce
CONFIG_PIECES = [b"lr = 0.5", b"epochs = 3", b"streams = 8,4|6", b"freeze_root = yes",
                 b"log = x.csv", b"lrn_k", b" = ", b"=", b"#", b"\n", b"\r", b",", b"|",
                 b"1_0", b"\xff", b"\xc3\xa9", b"\x00"]


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=40),
                 st.lists(st.sampled_from(CONFIG_PIECES), max_size=12).map(b"".join)))
def test_config_file_parses_or_raises_config_error(tmp_path, blob):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(blob)
    try:
        values = cli.parse_config_file(cfg)
    except cli.ConfigError:
        return
    assert set(values) <= set(cli._config_schema())


def test_config_file_parsing_and_comments(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\nlr = 0.25  # trailing comment\n\nepochs = 3\n"
                   "freeze_root = true\nstreams = 8,4|6\n")
    values = cli.parse_config_file(cfg)
    assert values == {"lr": 0.25, "epochs": 3, "freeze_root": True,
                      "streams": ((8, 4), (6,))}


def test_config_file_flag_override_wins(tmp_path, small_corpus):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lr = 0.5\nepochs = 1\n")
    model = tmp_path / "model.lfhn"
    # --lr 0 overrides the file; parameters must stay at init
    rc = cli.main(["train", "--data", str(small_corpus), "--out", str(model),
                   "--config", str(cfg), "--lr", "0", "--seed", "6"])
    assert rc == 0
    loaded = graph.load_checkpoint(model)
    fresh = graph.build_lfhn(loaded.config, seed=6)
    assert np.array_equal(loaded.params["fc7.weight"], fresh.params["fc7.weight"])


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("LFHN_SEED", "41")
    assert cli.resolve_seed(None) == 41
    assert cli.resolve_seed(7) == 7
    assert cli.resolve_seed(None, 13) == 13
    monkeypatch.setenv("LFHN_SEED", "junk")
    with pytest.raises(cli.ConfigError, match="not an integer"):
        cli.resolve_seed(None)
    assert cli.resolve_seed(0) == 0  # a flag wins before the variable is read
    monkeypatch.setenv("LFHN_SEED", "-3")
    with pytest.raises(cli.ConfigError, match="LFHN_SEED must be >= 0, got -3"):
        cli.resolve_seed(None)
    with pytest.raises(cli.ConfigError, match="--seed must be >= 0"):
        cli.resolve_seed(-1)
    with pytest.raises(cli.ConfigError, match="config seed must be >= 0"):
        cli.resolve_seed(None, -2)


SEEDED_COMMANDS = {
    "gen-data": ["gen-data", "--ids", "1", "--out", "{tmp}/corpus"],
    "train": ["train", "--data", "{tmp}/corpus", "--out", "{tmp}/model"],
    "eval": ["eval", "--model", "{tmp}/model", "--data", "{tmp}/corpus"],
    "gradcheck": ["gradcheck", "--samples", "1"],
}


@pytest.mark.parametrize("env", ["abc", "-3"])
@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_bad_seed_variable_exits_2_with_one_error_line(command, env, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.setenv("LFHN_SEED", env)
    argv = [arg.format(tmp=tmp_path) for arg in SEEDED_COMMANDS[command]]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: LFHN_SEED") and err.count("\n") == 1
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_negative_seed_flag_exits_2(command, tmp_path, capsys):
    argv = [arg.format(tmp=tmp_path) for arg in SEEDED_COMMANDS[command]]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


def test_threads_flag_sets_env(monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    assert cli.main(["shapes", "--threads", "1"]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_exits_2(threads, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    with pytest.raises(SystemExit) as exc:
        cli.main(["shapes", "--threads", threads])
    assert exc.value.code == 2
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_threads_flag_reaches_openblas():
    # a fresh interpreter, because this one loaded numpy long ago
    script = """
import ctypes, glob, os, sys
from lfhn import cli
assert "numpy" not in sys.modules, "importing lfhn.cli loaded numpy"
assert cli.main(["shapes", "--threads", "1"]) == 0
import numpy
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
paths = glob.glob(os.path.join(libs, "libscipy_openblas64_*"))
assert paths, f"no scipy-openblas library under {libs}"
lib = ctypes.CDLL(paths[0])
lib.scipy_openblas_get_num_threads64_.argtypes = []
lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
print("openblas_threads", lib.scipy_openblas_get_num_threads64_())
"""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "openblas_threads 1"
