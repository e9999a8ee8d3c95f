"""Locks on the experiment registry that run no simulation.

The registry is the one list of experiments: these tests keep the
committed tables, the ``repro sweep`` axes, the declared arguments and
DESIGN.md's experiment index in step with it, and show that the
figure test catches a committed table that does not match.
"""

import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from repro.bench import EXPERIMENTS
from repro.bench.registry import GROUPS
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "results"

#: Committed outputs of ``repro sweep benchmark`` and ``repro replay``,
#: which CI checks in their own steps.
NOT_EXPERIMENTS = {"benchmark_ranks", "replay_nw"}


def test_one_entry_per_committed_table():
    stems = [e.stem for e in EXPERIMENTS.values()]
    assert len(stems) == len(set(stems))
    committed = {p.stem for p in RESULTS.glob("*.txt")}
    assert NOT_EXPERIMENTS <= committed
    assert set(stems) == committed - NOT_EXPERIMENTS


def test_keys_and_groups():
    for key, entry in EXPERIMENTS.items():
        assert entry.key == key
        assert entry.group in GROUPS, key
        assert entry.claims, key


def test_sweep_choices_are_the_entries_axes():
    sweep = build_parser()._subparsers._group_actions[0].choices["sweep"]
    axis = next(a for a in sweep._actions if a.dest == "axis")
    axes = [e.axis for e in EXPERIMENTS.values() if e.axis]
    assert len(axes) == len(set(axes))
    assert set(axis.choices) == set(axes) | {"benchmark"}


@pytest.mark.parametrize("entry", EXPERIMENTS.values(),
                         ids=lambda e: e.key)
def test_declared_arguments_match_the_signature(entry):
    params = inspect.signature(entry.run).parameters
    assert entry.takes == {"config", "size"} & set(params)
    if entry.axis:
        sweep = inspect.signature(entry.sweep or entry.run).parameters
        assert {"config", "size", "jobs"} <= set(sweep)


def test_design_index_has_one_row_per_key():
    rows = re.findall(
        r"^\|.*\| `([a-z0-9_]+)` / `([a-z0-9_]+)\.txt` \|$",
        (ROOT / "DESIGN.md").read_text(), re.MULTILINE,
    )
    assert rows == [(e.key, e.stem) for e in EXPERIMENTS.values()]


def _figure_test_module():
    path = ROOT / "benchmarks" / "test_figures.py"
    spec = importlib.util.spec_from_file_location("figure_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_mutated_table_fails_the_figure_test(tmp_path, monkeypatch):
    figures = _figure_test_module()
    entry = EXPERIMENTS["table1"]
    committed = (RESULTS / f"{entry.stem}.txt").read_text()
    monkeypatch.setattr(figures, "RESULTS_DIR", tmp_path)
    (tmp_path / f"{entry.stem}.txt").write_text(committed)
    figures.test_figure(entry)
    (tmp_path / f"{entry.stem}.txt").write_text(
        committed.replace("131072", "131073")
    )
    with pytest.raises(pytest.fail.Exception) as failure:
        figures.test_figure(entry)
    message = str(failure.value)
    assert "repro figure table1 > benchmarks/results/table1_configs.txt" \
        in message
    assert "131073" in message
