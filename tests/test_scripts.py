"""The README's experiment recipes, run in-process at small epoch counts: the
capacity run through the command line, and the invariance probe script."""

import runpy
import sys
from pathlib import Path

from lfhn import cli, data, graph, train
from lfhn.train import TrainConfig

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# the README's run.cfg: desk_config's widths
DESK_CFG = ("root_channels = 16\nstreams = 16,24|16\npost_concat_channels = 24\n"
            "fc_hidden = 64\n")


def _run(monkeypatch, capsys, script, *args):
    monkeypatch.setattr(sys, "argv", [script, *args])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_capacity_recipe_trains_the_desk_config(tmp_path):
    # gen-data then train with the README's run.cfg writes the bytes of
    # train.train on desk_config, saved and logged by hand
    corpus, run_cfg = tmp_path / "corpus", tmp_path / "run.cfg"
    run_cfg.write_text(DESK_CFG)
    assert cli.main(["gen-data", "--ids", "2", "--seed", "0", "--out", str(corpus)]) == 0
    assert cli.main(["train", "--data", str(corpus), "--out", str(tmp_path / "cli.lfhn"),
                     "--config", str(run_cfg), "--epochs", "2", "--lr", "0.02",
                     "--seed", "0"]) == 0

    net = graph.build_lfhn(graph.desk_config(2), 0)
    _, log = train.train(net, data.load_corpus(corpus),
                         TrainConfig(lr=0.02, epochs=2, seed=0))
    graph.save_checkpoint(net, tmp_path / "direct.lfhn")
    train.write_log(log, tmp_path / "direct.csv")
    assert (tmp_path / "cli.lfhn").read_bytes() == (tmp_path / "direct.lfhn").read_bytes()
    assert (tmp_path / "cli.lfhn.log.csv").read_bytes() == \
           (tmp_path / "direct.csv").read_bytes()


def test_invariance_probe_without_epochs_prints_no_train_accuracy(tmp_path, monkeypatch,
                                                                  capsys):
    out = _run(monkeypatch, capsys, "invariance_probe.py", "--ids", "2", "--epochs", "0",
               "--workdir", str(tmp_path))
    assert not any("final train acc" in line for line in out)
    assert out[-1].startswith("summary: unseen lights ")


def test_invariance_probe_reused_workdir_gets_the_corpus_its_ids_make(tmp_path, monkeypatch,
                                                                      capsys):
    _run(monkeypatch, capsys, "invariance_probe.py", "--ids", "2", "--epochs", "0",
         "--workdir", str(tmp_path))
    out = _run(monkeypatch, capsys, "invariance_probe.py", "--ids", "3", "--epochs", "0",
               "--workdir", str(tmp_path))
    # 3 identities x 13 poses x 8 lights, lights 3 and 7 held out
    assert "holdout-light:3,7: trained on 234, tested on 78" in out
