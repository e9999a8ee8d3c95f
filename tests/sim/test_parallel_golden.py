"""Golden bit-identity: window-barrier parallel core vs sequential.

The parallel core (``repro.sim.parallel``) shards the SM array across
N workers and synchronizes them at window barriers; within the safe
window bound it must produce field-for-field identical
:class:`RunStats` to the sequential event core on every benchmark —
sharding is only allowed to change wall-clock, never the timing model.

The full suite runs at the small dataset for shards in {2, 4} under
*both* execution backends — the in-process thread pool and the forked
process workers (``repro.sim.parallel_proc``); the heaviest benchmarks
get an extra medium-size lock, and a shards x windows matrix (marked
``slow``) locks the identity across explicit window sizes up to the
safe bound.  Relaxed mode (windows beyond the bound) is deliberately
absent from these locks: its results are approximate by design.

``run_benchmark`` replays precounted traces; the small-suite matrix
also runs each sharded case live (generators driven inside the shard
workers, live instruction counting merged at finalize).
"""

import dataclasses
import functools

import pytest

from repro.core.runner import run_benchmark
from repro.data.datasets import DatasetSize
from repro.kernels import benchmark_names, build_application
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator


@functools.lru_cache(maxsize=None)
def _sequential_stats(abbr: str, cdp: bool, size: DatasetSize):
    return run_benchmark(
        abbr, cdp=cdp, size=size, config=GPUConfig(event_core=True)
    )


def _sequential(abbr: str, cdp: bool, size: DatasetSize):
    # Shared by every shards x backend case of one variant.
    return dataclasses.asdict(_sequential_stats(abbr, cdp, size))


def _parallel(abbr: str, cdp: bool, size: DatasetSize, shards: int,
              window: int = 0, executor: str = "auto", live: bool = False):
    config = GPUConfig(
        event_core=True,
        parallel_shards=shards,
        window_cycles=window,
        parallel_executor=executor,
    )
    if live:
        stats = GPUSimulator(config).run_application(
            build_application(abbr, cdp=cdp, size=size)
        )
    else:
        stats = run_benchmark(abbr, cdp=cdp, size=size, config=config)
    return dataclasses.asdict(stats)


@pytest.mark.parametrize("executor", ["threads", "processes"])
@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", benchmark_names())
def test_small_suite_identical(abbr, cdp, shards, executor):
    """Both backends, whole suite.  CDP variants exercise the process
    backend's eligibility fallback (device launches keep the run
    in-process) — the identity contract holds either way."""
    seq = _sequential(abbr, cdp, DatasetSize.SMALL)
    par = _parallel(abbr, cdp, DatasetSize.SMALL, shards, executor=executor)
    assert par == seq
    live = _parallel(abbr, cdp, DatasetSize.SMALL, shards, executor=executor,
                     live=True)
    assert live == seq


@pytest.mark.slow
@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", ["PairHMM", "NvB"])
def test_medium_heavyweights_identical(abbr, cdp):
    seq = _sequential(abbr, cdp, DatasetSize.MEDIUM)
    par = _parallel(abbr, cdp, DatasetSize.MEDIUM, 4)
    assert par == seq


@pytest.mark.slow
@pytest.mark.parametrize("window", [1, 16, 64, 131])
@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("abbr", ["NW", "PairHMM"])
def test_shards_windows_matrix_identical(abbr, shards, window):
    """Explicit window sizes up to the default safe bound (131)."""
    seq = _sequential(abbr, False, DatasetSize.SMALL)
    par = _parallel(abbr, False, DatasetSize.SMALL, shards, window=window)
    assert par == seq


def test_inline_matches_threads():
    """The executor is pure mechanism: inline (no threads) and the
    thread pool must walk the exact same schedule."""
    threaded = _parallel(
        "PairHMM", False, DatasetSize.SMALL, 4, executor="threads"
    )
    inline = _parallel(
        "PairHMM", False, DatasetSize.SMALL, 4, executor="inline"
    )
    assert inline == threaded


def test_processes_match_threads():
    """The forked backend and the thread pool are two mechanisms for
    the same schedule: their RunStats must agree field-for-field."""
    procs = _parallel(
        "PairHMM", False, DatasetSize.SMALL, 4, executor="processes"
    )
    threaded = _parallel(
        "PairHMM", False, DatasetSize.SMALL, 4, executor="threads"
    )
    assert procs == threaded


@pytest.mark.parametrize("executor", ["threads", "processes"])
def test_telemetry_differential_identical(executor):
    """Per-shard telemetry absorbed at finalize must reproduce the
    sequential sampler's rows and events — for both backends (the
    process backend ships each worker's Telemetry pickled at
    finalize)."""
    def stats(shards):
        config = GPUConfig(
            event_core=True, parallel_shards=shards,
            telemetry_interval=5_000, parallel_executor=executor,
        )
        return run_benchmark(
            "PairHMM", size=DatasetSize.SMALL, config=config
        )

    seq, par = stats(1), stats(4)
    assert par.telemetry == seq.telemetry
    assert dataclasses.asdict(par) == dataclasses.asdict(seq)
