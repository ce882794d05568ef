"""The README's experiment recipes, run in-process at small epoch counts
through the command line: the capacity run and the invariance probe."""

from lfhn import cli, data, evaluate, graph, train
from lfhn.train import TrainConfig

# the README's run.cfg: desk_config's widths
DESK_CFG = ("root_channels = 16\nstreams = 16,24|16\npost_concat_channels = 24\n"
            "fc_hidden = 64\n")


def _train_by_hand(tmp_path, samples, ids, epochs, frozen=()):
    """train.train on desk_config(ids) with the frozen set, saved and logged
    as train does."""
    cfg = graph.desk_config(ids)
    net = graph.NetworkGraph(cfg, graph.build_lfhn(cfg, 0).params, frozen)
    _, log = train.train(net, samples, TrainConfig(lr=0.02, epochs=epochs, seed=0))
    graph.save_checkpoint(net, tmp_path / "direct.lfhn")
    train.write_log(log, tmp_path / "direct.csv")
    return net


def _assert_same_run(tmp_path):
    assert (tmp_path / "cli.lfhn").read_bytes() == (tmp_path / "direct.lfhn").read_bytes()
    assert (tmp_path / "cli.lfhn.log.csv").read_bytes() == \
           (tmp_path / "direct.csv").read_bytes()


def test_capacity_recipe_trains_the_desk_config(tmp_path):
    # gen-data then train with the README's run.cfg writes the bytes of
    # train.train on desk_config, saved and logged by hand
    corpus, run_cfg = tmp_path / "corpus", tmp_path / "run.cfg"
    run_cfg.write_text(DESK_CFG)
    assert cli.main(["gen-data", "--ids", "2", "--seed", "0", "--out", str(corpus)]) == 0
    assert cli.main(["train", "--data", str(corpus), "--out", str(tmp_path / "cli.lfhn"),
                     "--config", str(run_cfg), "--epochs", "2", "--lr", "0.02",
                     "--seed", "0"]) == 0

    _train_by_hand(tmp_path, data.load_corpus(corpus), 2, 2)
    _assert_same_run(tmp_path)


def test_frozen_root_from_the_flag_or_the_run_config_trains_the_same_bytes(tmp_path, capsys):
    # --freeze-root, and freeze_root = true in the run config with no flag,
    # each write the bytes of train.train on a net built with conv1 frozen
    corpus = tmp_path / "corpus"
    (tmp_path / "run.cfg").write_text(DESK_CFG)
    (tmp_path / "frozen.cfg").write_text(DESK_CFG + "freeze_root = true\n")
    assert cli.main(["gen-data", "--ids", "2", "--seed", "0", "--out", str(corpus)]) == 0
    common = ["train", "--data", str(corpus), "--epochs", "2", "--lr", "0.02", "--seed", "0"]
    capsys.readouterr()
    for out, run_cfg, flags in [("flag.lfhn", "run.cfg", ["--freeze-root"]),
                                ("cli.lfhn", "frozen.cfg", [])]:
        assert cli.main(common + flags + ["--config", str(tmp_path / run_cfg),
                                          "--out", str(tmp_path / out)]) == 0
        assert capsys.readouterr().err == ("warning: freeze_root set without root_from; "
                                           "freezing the randomly initialized root layer\n")
    assert (tmp_path / "cli.lfhn").read_bytes() == (tmp_path / "flag.lfhn").read_bytes()
    assert (tmp_path / "cli.lfhn.log.csv").read_bytes() == \
           (tmp_path / "flag.lfhn.log.csv").read_bytes()

    _train_by_hand(tmp_path, data.load_corpus(corpus), 2, 2, frozen={"conv1"})
    _assert_same_run(tmp_path)
    assert graph.load_checkpoint(tmp_path / "cli.lfhn").frozen == {"conv1"}


def test_invariance_recipe_trains_on_the_train_side_and_scores_the_held_out_one(
        tmp_path, monkeypatch):
    # train --split fits data.split's train side, and eval --split scores its
    # test side, as train.train and evaluate on those sides do
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # --threads sets them
    corpus, run_cfg = tmp_path / "corpus", tmp_path / "run.cfg"
    run_cfg.write_text(DESK_CFG)
    protocol = "holdout-light:3,7"
    assert cli.main(["gen-data", "--ids", "2", "--seed", "7", "--out", str(corpus)]) == 0
    assert cli.main(["train", "--threads", "1", "--split", protocol, "--data", str(corpus),
                     "--out", str(tmp_path / "cli.lfhn"), "--config", str(run_cfg),
                     "--epochs", "1", "--lr", "0.02", "--seed", "0"]) == 0
    assert cli.main(["eval", "--threads", "1", "--split", protocol, "--style", "paper",
                     "--model", str(tmp_path / "cli.lfhn"), "--data", str(corpus),
                     "--out", str(tmp_path / "cli.csv")]) == 0

    train_side, test_side = data.split(data.load_corpus(corpus), protocol)
    net = _train_by_hand(tmp_path, train_side, 2, 1)
    _assert_same_run(tmp_path)
    table = evaluate.evaluate(net, test_side)
    assert (tmp_path / "cli.csv").read_text() == evaluate.format_table(table, "csv") + "\n"
    assert [b.n_samples for b in table.bins] == [4] * 13  # 2 ids x 2 held-out lights
