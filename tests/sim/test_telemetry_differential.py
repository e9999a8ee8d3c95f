"""Differential lock: telemetry is core-independent.

The golden suite (``test_event_core_golden.py``) proves the event core
and the scan-per-decision reference produce identical end-of-run
aggregates.  Telemetry is a stronger claim — both cores must make the
same attribution call at the same *simulated cycle*, even where the
event core macro-issues whole repeat blocks, fuses stall spans inline,
or runs ahead of global heap order.  Here every benchmark (both CDP
variants) runs through both cores with sampling on, and the interval
time series, the canonically-sorted event streams, and the metadata
must be bit-identical.

``run_benchmark`` replays template-instantiated traces, so a live arm
(the reference core running a plain application, which
``run_application`` materializes with templates off, every warp
through its generator) must also reproduce the reference core's
replayed stats, telemetry included.
"""

import dataclasses

import pytest

from repro.core.runner import run_benchmark
from repro.data.datasets import DatasetSize
from repro.kernels import benchmark_names, build_application
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator

#: Small enough to make interval effects visible on the SMALL datasets.
INTERVAL = 2_000

pytestmark = pytest.mark.differential


def _telemetry_runs(abbr: str, cdp: bool):
    fast = run_benchmark(
        abbr, cdp=cdp, size=DatasetSize.SMALL,
        config=GPUConfig(event_core=True, telemetry_interval=INTERVAL),
    )
    ref_config = GPUConfig(event_core=False, telemetry_interval=INTERVAL)
    ref = run_benchmark(
        abbr, cdp=cdp, size=DatasetSize.SMALL, config=ref_config
    )
    live = GPUSimulator(ref_config).run_application(
        build_application(abbr, cdp=cdp, size=DatasetSize.SMALL)
    )
    return fast, ref, live


@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", benchmark_names())
def test_interval_series_identical(abbr, cdp):
    fast_stats, ref_stats, live_stats = _telemetry_runs(abbr, cdp)
    assert dataclasses.asdict(live_stats) == dataclasses.asdict(ref_stats)
    fast, ref = fast_stats.telemetry, ref_stats.telemetry
    assert fast is not None and ref is not None
    assert fast["rows"] == ref["rows"]
    assert fast["events"] == ref["events"]
    assert fast["meta"] == ref["meta"]


def test_telemetry_off_leaves_stats_untelemetered():
    stats = run_benchmark("NW", size=DatasetSize.SMALL, config=GPUConfig())
    assert stats.telemetry is None
