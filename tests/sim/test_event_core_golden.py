"""Golden bit-identity: event core vs scan-per-decision reference.

The event-maintained issue loop (``repro.sim.sm``, with SM-local
run-ahead for non-CDP applications) must produce field-for-field
identical :class:`RunStats` to the frozen reference core
(``repro.sim.sm_reference``) on every benchmark — the performance work
is only allowed to change wall-clock, never the timing model.

The full suite runs at the small dataset; the heaviest benchmarks get
an extra medium-size lock so the identity holds beyond the default
size's trace shapes, and PairHMM, the slowest single run, a
``slow``-marked large-size lock.  Every other CDP variant with a
medium-size input (NW, SW, STAR, CLUSTER) has a medium lock as well:
CDP replays run ahead up to the trace-lookahead horizon, whose bound
terms (launches, child completions, parent wake-ups, admissions) only
interleave densely at that size.

``run_benchmark`` replays template-instantiated traces, so each case
also has a live arm: the event core running the plain application,
which ``run_application`` materializes with templates off (every warp
through its generator, counted by the same ``TraceCounts`` walk).

The default ``lrr`` policy runs every cell; the other three Fig 19
policies get a small-suite lock of their own, since each reads
different issue-loop state (``gto`` the last issued warp, ``2lv`` the
ready flags, ``old`` nothing but the ready order).
"""

import dataclasses

import pytest

from repro.core.runner import run_benchmark
from repro.data.datasets import DatasetSize
from repro.kernels import benchmark_names, build_application
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator

pytestmark = pytest.mark.differential


def _stats_triple(abbr: str, cdp: bool, size: DatasetSize):
    fast = run_benchmark(
        abbr, cdp=cdp, size=size, config=GPUConfig(event_core=True)
    )
    ref = run_benchmark(
        abbr, cdp=cdp, size=size, config=GPUConfig(event_core=False)
    )
    live = GPUSimulator(GPUConfig(event_core=True)).run_application(
        build_application(abbr, cdp=cdp, size=size)
    )
    return tuple(dataclasses.asdict(s) for s in (fast, ref, live))


@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", benchmark_names())
def test_small_suite_identical(abbr, cdp):
    fast, ref, live = _stats_triple(abbr, cdp, DatasetSize.SMALL)
    assert fast == ref
    assert fast == live


@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", ["GKSW", "PairHMM", "NvB"])
def test_medium_heavyweights_identical(abbr, cdp):
    fast, ref, live = _stats_triple(abbr, cdp, DatasetSize.MEDIUM)
    assert fast == ref
    assert fast == live


@pytest.mark.parametrize("abbr", ["NW", "SW", "STAR", "CLUSTER"])
def test_medium_cdp_identical(abbr):
    fast, ref, live = _stats_triple(abbr, True, DatasetSize.MEDIUM)
    assert fast == ref
    assert fast == live


@pytest.mark.slow
def test_large_pairhmm_identical():
    fast, ref, live = _stats_triple("PairHMM", False, DatasetSize.LARGE)
    assert fast == ref
    assert fast == live


@pytest.mark.parametrize("scheduler", ["gto", "old", "2lv"])
@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", benchmark_names())
def test_small_suite_identical_per_scheduler(abbr, cdp, scheduler):
    fast, ref = (
        dataclasses.asdict(run_benchmark(
            abbr, cdp=cdp, size=DatasetSize.SMALL,
            config=GPUConfig(event_core=event_core, scheduler=scheduler),
        ))
        for event_core in (True, False)
    )
    assert fast == ref


@pytest.mark.parametrize("scheduler", ["gto", "2lv"])
@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", ["PairHMM", "NW"])
def test_medium_identical_per_scheduler(abbr, cdp, scheduler):
    """gto reads the scheduler's own record of its last pick and 2lv
    the ready flags; both meet the run-ahead heap fusion and the gated
    loop at a size where warps interleave for longer."""
    fast, ref = (
        dataclasses.asdict(run_benchmark(
            abbr, cdp=cdp, size=DatasetSize.MEDIUM,
            config=GPUConfig(event_core=event_core, scheduler=scheduler),
        ))
        for event_core in (True, False)
    )
    assert fast == ref
