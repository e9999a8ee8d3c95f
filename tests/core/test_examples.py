"""Smoke test: every script in ``examples/`` runs to completion.

Each example runs as its own process, the way a reader would run it,
from a temporary working directory, so nothing it writes lands in the
checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)
SRC = str(Path(repro.__file__).resolve().parents[1])


def test_examples_found():
    assert len(EXAMPLES) == 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
