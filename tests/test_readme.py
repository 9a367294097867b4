"""The README's public examples run against the current API, so they cannot
drift from it."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from volfpl import ExperimentConfig, ScheduleParams
from volfpl.cli import main as cli_main
from volfpl.harness import resolve_game

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def fenced_block(after: str, lang: str) -> str:
    """The first ```lang block of the README after the text ``after``."""
    start = README.index(after)
    match = re.compile(rf"^```{lang}\n(.*?)^```", re.M | re.S).search(README, start)
    assert match, f"no {lang} block after {after!r}"
    return match.group(1)


def test_library_tour_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c",
         fenced_block("## Library tour", "python")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the tour prints "regret <= bound" for one seeded run
    regret, sign, bound = proc.stdout.split()
    assert sign == "<=" and float(regret) <= float(bound)


def test_experiment_config_parses():
    cfg = ExperimentConfig.from_dict(
        json.loads(fenced_block("An experiment config looks like", "json")))
    game = resolve_game(cfg.game)
    params = ScheduleParams.from_config(cfg.schedule)
    assert game.values.shape == (cfg.game["num_steps"], cfg.game["n_experts"])
    assert params.num_experts == cfg.game["n_experts"]


def command_lines():
    """The ``volfpl ...`` lines of the README's Command line block."""
    block = fenced_block("## Command line", "sh")
    return [line for line in block.splitlines() if line.startswith("volfpl ")]


def test_command_block_has_every_command():
    # an empty list would leave the test below with no case to run
    commands = {shlex.split(line)[1] for line in command_lines()}
    assert commands == {"run", "adversary", "trading", "probe"}


@pytest.mark.parametrize("line", command_lines())
def test_command_line_runs(line, tmp_path, monkeypatch, capsys):
    # run where the README's example config is experiment.json, as its
    # command lines assume
    (tmp_path / "experiment.json").write_text(
        fenced_block("An experiment config looks like", "json"))
    monkeypatch.chdir(tmp_path)
    assert cli_main(shlex.split(line)[1:]) == 0
