"""The experiment scripts, run in-process at small epoch counts."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, capsys, script, *args):
    monkeypatch.setattr(sys, "argv", [script, *args])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("epochs", [0, 2])
def test_overfit_experiment_prints_each_epoch_once(tmp_path, monkeypatch, capsys, epochs):
    out = _run(monkeypatch, capsys, "overfit_experiment.py", "--ids", "2",
               "--epochs", str(epochs), "--workdir", str(tmp_path))
    shown = [int(line.split()[1]) for line in out if line.lstrip().startswith("epoch ")]
    assert shown == list(range(epochs))
    assert (tmp_path / "model.lfhn").exists()


def test_invariance_probe_without_epochs_prints_no_train_accuracy(tmp_path, monkeypatch,
                                                                  capsys):
    out = _run(monkeypatch, capsys, "invariance_probe.py", "--ids", "2", "--epochs", "0",
               "--workdir", str(tmp_path))
    assert not any("final train acc" in line for line in out)
    assert out[-1].startswith("summary: unseen lights ")
