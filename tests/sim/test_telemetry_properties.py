"""Property tests: the interval series are exact decompositions.

Sampling must never invent or lose work — summing any telemetry series
over all intervals has to reproduce the corresponding aggregate
``RunStats`` counter *exactly* (not approximately: every hook records
integer cycles of an integer-cycle simulation).  Within a row, the
occupancy buckets partition the issued instructions and the stall
fractions partition the interval's stall cycles.

Sampling must also never perturb what it observes: on every variant
and both cores, a telemetry-on run equals the telemetry-off run in
every ``RunStats`` field but ``telemetry`` itself.
"""

import dataclasses

import pytest

from repro.core.runner import run_benchmark
from repro.data.datasets import DatasetSize
from repro.kernels import benchmark_names, build_application
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator
from repro.sim.replay import CachedApplication, replay_application
from repro.sim.telemetry import aggregate_rows

pytestmark = pytest.mark.differential

#: A benchmark slice covering the distinct machine behaviours: dense
#: ALU (NW), shared-memory tiling (GL), cache-hostile streaming
#: (PairHMM), low-occupancy CDP launch storms (STAR), barriers (CLUSTER).
CASES = [
    ("NW", False),
    ("GL", False),
    ("PairHMM", False),
    ("STAR", True),
    ("CLUSTER", False),
]

INTERVAL = 2_000


def _run(abbr, cdp):
    return run_benchmark(
        abbr, cdp=cdp, size=DatasetSize.SMALL,
        config=GPUConfig(telemetry_interval=INTERVAL),
    )


def _assert_exact_decomposition(stats):
    summary = stats.telemetry
    assert summary is not None
    rows = summary["rows"]
    agg = aggregate_rows(rows)

    # Per-interval: occupancy buckets partition issued instructions,
    # stall fractions partition the interval's stall cycles.
    for row in rows:
        assert sum(row["occupancy"].values()) == row["instructions"]
        if any(row["stalls"].values()):
            assert sum(row["stall_fractions"].values()) == pytest.approx(1.0)
        else:
            assert row["stall_fractions"] == {}

    # Whole-run: the series sum back to the aggregate counters exactly,
    # and the run-level metadata reports the same totals.
    assert summary["meta"]["instructions"] == stats.instructions
    assert summary["meta"]["cycles"] == stats.cycles
    assert agg["instructions"] == stats.instructions
    assert agg["occupancy"] == stats.warp_occupancy
    assert agg["stalls"] == {k: v for k, v in stats.stalls.items() if v}
    assert agg["l1_accesses"] == stats.l1.accesses
    assert agg["l1_misses"] == stats.l1.misses
    assert agg["l1_load_accesses"] == stats.l1.load_accesses
    assert agg["l1_load_misses"] == stats.l1.load_misses
    assert agg["l2_accesses"] == stats.l2.accesses
    assert agg["l2_misses"] == stats.l2.misses
    assert agg["l2_load_accesses"] == stats.l2.load_accesses
    assert agg["l2_load_misses"] == stats.l2.load_misses
    assert agg["dram_requests"] == stats.dram.requests
    assert agg["dram_data_cycles"] == stats.dram.data_cycles
    assert agg["noc_messages"] == stats.noc.messages
    assert agg["noc_bytes"] == stats.noc.bytes


@pytest.mark.parametrize(
    "abbr,cdp", CASES, ids=[f"{a}{'-cdp' if c else ''}" for a, c in CASES]
)
def test_series_decompose_aggregates(abbr, cdp):
    _assert_exact_decomposition(_run(abbr, cdp))


@pytest.mark.parametrize(
    "abbr,cdp", CASES, ids=[f"{a}{'-cdp' if c else ''}" for a, c in CASES]
)
def test_reference_core_series_decompose_aggregates(abbr, cdp):
    stats = run_benchmark(
        abbr, cdp=cdp, size=DatasetSize.SMALL,
        config=GPUConfig(event_core=False, telemetry_interval=INTERVAL),
    )
    _assert_exact_decomposition(stats)


def test_replayed_run_series_decompose_aggregates():
    """A second replay of one materialization samples exactly like the
    first: the issue hooks give the time-resolved split of the trace
    totals, which are credited before telemetry snapshots its
    metadata, so ``meta["instructions"]`` is the run's true count."""
    entry = CachedApplication(build_application("NW", size=DatasetSize.SMALL))
    config = GPUConfig(telemetry_interval=INTERVAL)
    # Materialize traces, then replay through a fresh simulator.
    replay_application(entry, GPUSimulator(config))
    stats = replay_application(entry, GPUSimulator(config))
    _assert_exact_decomposition(stats)


def test_event_rows_cover_every_interval_with_work():
    stats = _run("NW", False)
    rows = stats.telemetry["rows"]
    assert rows, "a run must sample at least one interval"
    # Rows are time-ordered with consistent window bounds.
    indices = [row["index"] for row in rows]
    assert indices == sorted(indices)
    for row in rows:
        assert row["end"] - row["start"] == INTERVAL
        assert row["start"] == row["index"] * INTERVAL


@pytest.mark.parametrize("event_core", [True, False],
                         ids=["event", "reference"])
@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", benchmark_names())
def test_telemetry_leaves_stats_unchanged(abbr, cdp, event_core):
    """At ``repro profile``'s default interval, sampling only observes
    the timing model: a hook that charged a cycle, reordered an issue
    or touched a cache would show up as a differing field here."""
    on, off = (
        dataclasses.asdict(run_benchmark(
            abbr, cdp=cdp, size=DatasetSize.SMALL,
            config=GPUConfig(event_core=event_core,
                             telemetry_interval=interval),
        ))
        for interval in (10_000, 0)
    )
    assert on.pop("telemetry") is not None
    assert off.pop("telemetry") is None
    assert on == off
    # The per-SM issue counts add up to the trace-credited total.
    assert sum(off["sm_instructions"].values()) == off["instructions"]
