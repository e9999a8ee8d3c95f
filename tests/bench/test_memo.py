"""The experiments' point memo: within one process, each distinct
simulation point runs once, however many tables read it."""

import pytest

from repro.bench import (
    experiments,
    fig4_kernel_pci,
    fig5_stalls,
    fig7_shared_memory,
)
from repro.core.config_presets import baseline_config
from repro.core.sweep import point_key, suite_points
from repro.sim.gpu import GPUSimulator

#: The machine ``test_experiments.py`` uses, so the two files share
#: points when they run in one process.
CONFIG = baseline_config(num_sms=8)


@pytest.fixture
def simulations(monkeypatch):
    """A private copy of the memo, and the ``run_application`` calls."""
    monkeypatch.setattr(experiments, "memo", dict(experiments.memo))
    calls = []
    original = GPUSimulator.run_application

    def counted(self, app):
        calls.append(app)
        return original(self, app)

    monkeypatch.setattr(GPUSimulator, "run_application", counted)
    return calls


def test_tables_sharing_the_suite_simulate_it_once(simulations):
    keys = {point_key(point) for point in suite_points(config=CONFIG)}
    unseen = keys - experiments.memo.keys()
    fig4_kernel_pci(CONFIG)
    assert len(simulations) == len(unseen)
    fig5_stalls(CONFIG)
    assert len(simulations) == len(unseen)
    assert keys <= experiments.memo.keys()


def test_a_cleared_memo_gives_the_same_rows(simulations):
    memoized = fig7_shared_memory(CONFIG)
    simulations.clear()
    experiments.memo.clear()
    assert fig7_shared_memory(CONFIG) == memoized
    assert len(simulations) == 4
