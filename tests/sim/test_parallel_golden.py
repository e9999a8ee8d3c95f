"""Golden bit-identity: window-barrier parallel core vs sequential.

The parallel core (``repro.sim.parallel``, forked shard workers from
``repro.sim.parallel_proc``) shards the SM array across N workers and
synchronizes them at window barriers; it must produce field-for-field
identical :class:`RunStats` to the sequential event core on every
benchmark — sharding is only allowed to change wall-clock, never the
timing model.

The full suite runs at the small dataset for shards in {2, 4}; CDP
variants are ineligible for sharding and must come out of the
sequential core unchanged.  The heaviest benchmarks get an extra
medium-size lock (marked ``slow``).

``run_benchmark`` replays precounted traces; the small-suite matrix
also runs each sharded case live (generators driven inside the shard
workers, live instruction counting merged at finalize).
"""

import dataclasses
import functools

import pytest

from repro.core.runner import load_benchmark, run_benchmark
from repro.data.datasets import DatasetSize
from repro.kernels import benchmark_names, build_application
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator
from repro.sim.parallel_proc import (
    ProcessShardDriver,
    try_install_process_driver,
)


@functools.lru_cache(maxsize=None)
def _sequential_stats(abbr: str, cdp: bool, size: DatasetSize):
    return run_benchmark(
        abbr, cdp=cdp, size=size, config=GPUConfig(event_core=True)
    )


def _sequential(abbr: str, cdp: bool, size: DatasetSize):
    # Shared by every shards case of one variant.
    return dataclasses.asdict(_sequential_stats(abbr, cdp, size))


def _parallel(abbr: str, cdp: bool, size: DatasetSize, shards: int,
              live: bool = False):
    config = GPUConfig(event_core=True, parallel_shards=shards)
    if live:
        stats = GPUSimulator(config).run_application(
            build_application(abbr, cdp=cdp, size=size)
        )
    else:
        stats = run_benchmark(abbr, cdp=cdp, size=size, config=config)
    return dataclasses.asdict(stats)


# ``backend`` has one value; it stays in the test ids so results line
# up with earlier runs of this matrix.
@pytest.mark.parametrize("backend", ["processes"])
@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", benchmark_names())
def test_small_suite_identical(abbr, cdp, shards, backend):
    """Whole suite.  CDP variants exercise the eligibility fallback
    (device launches keep the run sequential) — the identity contract
    holds either way."""
    seq = _sequential(abbr, cdp, DatasetSize.SMALL)
    par = _parallel(abbr, cdp, DatasetSize.SMALL, shards)
    assert par == seq
    live = _parallel(abbr, cdp, DatasetSize.SMALL, shards, live=True)
    assert live == seq


def test_matrix_is_not_vacuous():
    """The golden matrix must actually exercise the shard workers: a
    plain variant installs the forked driver, a CDP variant none."""
    config = GPUConfig(event_core=True, parallel_shards=2)
    sim = GPUSimulator(config)
    app = load_benchmark("NW", size=DatasetSize.SMALL)
    assert try_install_process_driver(sim, app) is not None
    driver = sim._grid_driver.__self__
    assert isinstance(driver, ProcessShardDriver)
    driver.close()

    sim = GPUSimulator(config)
    cdp_app = load_benchmark("NW", cdp=True, size=DatasetSize.SMALL)
    assert try_install_process_driver(sim, cdp_app) is None
    assert sim._grid_driver is None


@pytest.mark.slow
@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", ["PairHMM", "NvB"])
def test_medium_heavyweights_identical(abbr, cdp):
    seq = _sequential(abbr, cdp, DatasetSize.MEDIUM)
    par = _parallel(abbr, cdp, DatasetSize.MEDIUM, 4)
    assert par == seq


@pytest.mark.parametrize("backend", ["processes"])
def test_telemetry_differential_identical(backend):
    """Per-shard telemetry absorbed at finalize must reproduce the
    sequential sampler's rows and events (each worker ships its
    Telemetry pickled at finalize)."""
    def stats(shards):
        config = GPUConfig(
            event_core=True, parallel_shards=shards,
            telemetry_interval=5_000,
        )
        return run_benchmark(
            "PairHMM", size=DatasetSize.SMALL, config=config
        )

    seq, par = stats(1), stats(4)
    assert par.telemetry == seq.telemetry
    assert dataclasses.asdict(par) == dataclasses.asdict(seq)
