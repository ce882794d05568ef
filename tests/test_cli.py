import hashlib
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

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


def test_gradcheck_lrn_alias_checks_root(capsys):
    rc = cli.main(["gradcheck", "--samples", "4", "--layer", "lrn"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "conv1.kernel" in out and "fc" not in out.replace("fc", "fc")  # only conv1 rows
    assert all(line.startswith(("conv1.", "OK")) for line in out.splitlines() if line)


def test_gradcheck_unknown_layer(capsys):
    assert cli.main(["gradcheck", "--layer", "bogus"]) == 2


def test_gradcheck_detects_corrupted_backward(monkeypatch, capsys):
    def lopsided(x, p, grad_out):
        half = p.size // 2
        s = p.k + (p.alpha / p.size) * layers._window_sum_channels(x * x, half)
        return grad_out * s ** (-p.beta)

    monkeypatch.setattr(layers, "lrn_backward", lopsided)
    rc = cli.main(["gradcheck", "--samples", "8", "--seed", "1"])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().out


def test_gradcheck_fails_on_nan_backward(monkeypatch, capsys):
    lrn_backward = layers.lrn_backward
    monkeypatch.setattr(layers, "lrn_backward", lambda *a: lrn_backward(*a) * np.nan)
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
                                      (b"input_height", b"\xffnput_height")])
def test_eval_rejects_malformed_config_block_with_one_error_line(tmp_path, small_corpus,
                                                                 capsys, old, new):
    model = tmp_path / "model.lfhn"
    graph.save_checkpoint(graph.build_lfhn(graph.tiny_config(), seed=0), model)
    blob = model.read_bytes()
    assert blob.count(old) == 1
    model.write_bytes(blob.replace(old, new))  # same length, so the block length holds
    capsys.readouterr()
    rc = cli.main(["eval", "--model", str(model), "--data", str(small_corpus)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


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


def test_train_with_root_weights_file(tmp_path, small_corpus):
    sample = data.load_corpus(small_corpus)[0]
    h, w, c = sample.image.shape
    cfg = graph.LfhnConfig(input_height=h, input_width=w, input_channels=c,
                           root_kernel=11, root_channels=96, root_stride=4,
                           num_classes=2)
    kernel_size = 11 * 11 * c * 96
    rng = np.random.default_rng(0)
    blob = rng.normal(size=kernel_size + 96).astype("<f8")
    weights = tmp_path / "root.f64"
    blob.tofile(weights)
    model = tmp_path / "model.lfhn"
    rc = cli.main(["train", "--data", str(small_corpus), "--out", str(model),
                   "--epochs", "1", "--lr", "0", "--seed", "4",
                   "--root-weights", str(weights)])
    assert rc == 0
    loaded = graph.load_checkpoint(model)
    assert np.array_equal(loaded.params["conv1.kernel"],
                          blob[:kernel_size].reshape(11, 11, c, 96))


# ---------------------------------------------------------------- config files

def test_config_file_unknown_key(tmp_path, small_corpus):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("learning_rate = 0.1\n")
    rc = cli.main(["train", "--data", str(small_corpus),
                   "--out", str(tmp_path / "m.lfhn"), "--config", str(cfg)])
    assert rc == 2


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
    assert capsys.readouterr().err.startswith("error: ")
    assert not model.exists() and not (tmp_path / "m.lfhn.log.csv").exists()


@pytest.mark.parametrize("line", BAD_CONFIG_LINES)
def test_shapes_config_bad_value_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert cli.main(["shapes", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


def test_every_exported_name_resolves():
    # the exports load lazily, so a stale entry would fail only on first use
    import lfhn

    for name in lfhn.__all__:
        assert getattr(lfhn, name).__name__ == name


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
