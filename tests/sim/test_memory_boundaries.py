"""The memory side's call boundaries count what ``RunStats`` counts.

The end-to-end benchmark's traced run (``benchmarks/e2e/tracing.py``)
attributes time to the cache, NoC and DRAM layers by wrapping these
class attributes, and fails when a wrapper count falls short of the
simulator's own counters:

- ``Cache.access`` (one per call) and ``Cache.probe_hits`` (one per
  line of the all-hit prefix it returns) against the L1 + L2 + const
  accesses;
- ``Network.request`` and ``Network.response`` against the NoC
  messages;
- ``DRAMChannel.access`` against the DRAM requests.

A fast path that reaches a component some other way (a private helper,
a function captured before the wrappers went in) would shrink the
attribution silently; these cases catch it in the plain test run.  The
wrappers go in before the simulator is built, as the traced run's do.
"""

import pytest

from repro.core.config_presets import with_controller, with_topology
from repro.core.runner import load_benchmark
from repro.data.datasets import DatasetSize
from repro.sim.cache import Cache
from repro.sim.config import GPUConfig
from repro.sim.dram import DRAMChannel
from repro.sim.gpu import GPUSimulator
from repro.sim.interconnect.network import Network
from repro.sim.replay import replay_application

APPS = ("GKSW", "NvB")

CONFIGS = {
    "baseline": GPUConfig(),
    "mesh": with_topology(GPUConfig(), "mesh"),
    "fifo": with_controller(GPUConfig(), "fifo"),
    "telemetry": GPUConfig(telemetry_interval=10000),
}


@pytest.fixture(scope="module")
def apps():
    return {abbr: load_benchmark(abbr, size=DatasetSize.SMALL)
            for abbr in APPS}


def _counting(monkeypatch, owner, name, counts, key, per_call=None):
    original = owner.__dict__[name]

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        counts[key] += 1 if per_call is None else per_call(result)
        return result

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("label", list(CONFIGS))
@pytest.mark.parametrize("abbr", APPS)
def test_boundary_counts_equal_run_stats(monkeypatch, apps, abbr, label):
    counts = {"cache": 0, "noc": 0, "dram": 0}
    _counting(monkeypatch, Cache, "access", counts, "cache")
    _counting(monkeypatch, Cache, "probe_hits", counts, "cache",
              per_call=lambda hits: hits)
    _counting(monkeypatch, Network, "request", counts, "noc")
    _counting(monkeypatch, Network, "response", counts, "noc")
    _counting(monkeypatch, DRAMChannel, "access", counts, "dram")

    stats = replay_application(apps[abbr], GPUSimulator(CONFIGS[label]))

    # Texture transactions have no RunStats counter to check against;
    # these applications issue none, so the cache equation is whole.
    assert stats.mem_mix.get("tex", 0) == 0
    cache_accesses = (stats.l1.accesses + stats.l2.accesses
                      + stats.const_cache.accesses)
    assert cache_accesses and stats.noc.messages and stats.dram.requests
    assert counts == {
        "cache": cache_accesses,
        "noc": stats.noc.messages,
        "dram": stats.dram.requests,
    }
