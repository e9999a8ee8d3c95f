"""Smoke tests of the end-to-end benchmark on ``--quick`` inputs.

Run from the repository root (about a minute on two CPUs)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_runs: dict = {}


def run(workload: str, seed: int = 0, trace: int = 0, cwd=ROOT):
    command = [
        sys.executable, str(Path(cwd) / "benchmarks/e2e/run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--quick",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def result(workload: str, seed: int = 0, trace: int = 0):
    """The (result line, detail record) of one quick run, memoized."""
    key = (workload, seed, trace)
    if key not in _runs:
        proc = run(workload, seed, trace)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-3000:]
        lines = proc.stdout.strip().splitlines()
        detail = next(line for line in lines if line.startswith("# detail "))
        _runs[key] = (json.loads(lines[-1]),
                      json.loads(detail[len("# detail "):]))
    return _runs[key]


def test_spec_is_within_the_declared_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = WORKLOADS + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    line, _ = result(workload, trace=trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in line["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in line["metrics"].items()}
    if trace:
        assert values["trace.op_cover_frac"] >= 0.95
    else:
        assert all(value > 0 for value in values.values())


@pytest.mark.parametrize("workload", ["cli-run", "est-suite"])
def test_same_seed_repeats_digests_accuracy_and_counts(workload):
    first_line, first = result(workload, trace=1)
    proc = run(workload, trace=1)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    again = json.loads(next(
        line for line in lines if line.startswith("# detail "))[9:])
    metrics = json.loads(lines[-1])["metrics"]
    assert again["inputs"] == first["inputs"]
    assert again["digests"] == first["digests"]
    assert again["counts"] == first["counts"]
    for name in ("sampled.est_err_pct", "sampled.ci_cover_frac"):
        assert metrics[name]["value"] == first_line["metrics"][name]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_generates_other_inputs(workload):
    _, seed0 = result(workload)
    _, seed1 = result(workload, seed=1)
    assert seed0["inputs"] != seed1["inputs"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("cli-run", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
