"""Run benchmarks on the simulator and collect statistics."""

from __future__ import annotations

from repro.data.datasets import DatasetSize
from repro.kernels import benchmark_names, build_application
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator
from repro.sim.replay import CachedApplication, replay_application
from repro.sim.stats import RunStats


def variant_name(abbr: str, cdp: bool) -> str:
    """Display name: ``NW`` or ``NW-CDP``."""
    return f"{abbr}-CDP" if cdp else abbr


def load_benchmark(
    abbr: str,
    cdp: bool = False,
    size: DatasetSize = DatasetSize.SMALL,
    workload=None,
    **options,
) -> CachedApplication:
    """Build one benchmark's application, materialized for replay.

    Warp traces are instantiated from per-class templates and their
    instruction totals counted once (:class:`CachedApplication`), which
    is much cheaper than running a generator per warp.
    """
    return CachedApplication(build_application(
        abbr, cdp=cdp, size=size, workload=workload, **options
    ))


def run_benchmark(
    abbr: str,
    cdp: bool = False,
    size: DatasetSize = DatasetSize.SMALL,
    config: GPUConfig | None = None,
    workload=None,
    **options,
) -> RunStats:
    """Run one benchmark to completion and return its statistics.

    A fresh simulator is built per call, so results are independent
    and deterministic for fixed inputs.  The run replays the
    application's materialized traces (:func:`load_benchmark`); the
    statistics are bit-identical to materializing every warp through
    its generator.
    """
    app = load_benchmark(abbr, cdp=cdp, size=size, workload=workload,
                         **options)
    return replay_application(app, GPUSimulator(config or GPUConfig()))


def estimate_benchmark(
    abbr: str,
    cdp: bool = False,
    size: DatasetSize = DatasetSize.SMALL,
    config: GPUConfig | None = None,
    workload=None,
    **options,
):
    """Estimate one benchmark's statistics from a warp sample.

    Returns an :class:`~repro.sim.sampled.EstimatedRunStats`: the same
    fields as :func:`run_benchmark`'s exact :class:`RunStats`, plus
    per-metric confidence intervals (``stats.interval("cycles")``) and
    the sampling metadata (``stats.sample``).  When ``config`` leaves
    ``sample_fraction`` at ``0.0`` (the exact-mode default) a 10%
    sample is used; pass an explicit fraction to override.
    """
    from repro.sim.sampled import estimate_application

    config = config or GPUConfig()
    if config.sample_fraction == 0.0:
        config = config.with_(sample_fraction=0.1)
    app = load_benchmark(abbr, cdp=cdp, size=size, workload=workload,
                         **options)
    return estimate_application(app, config)


def run_suite(
    benchmarks: list[str] | None = None,
    cdp_variants: bool = True,
    size: DatasetSize = DatasetSize.SMALL,
    config: GPUConfig | None = None,
    jobs: int | None = None,
) -> dict[str, RunStats]:
    """Run the whole suite; keys are variant names (``NW``, ``NW-CDP``...).

    ``jobs`` routes the runs through the sweep engine: ``0`` in-process
    with trace reuse, ``N`` across N worker processes (see
    :func:`repro.core.sweep.run_sweep`).  ``None`` (the default) keeps
    the direct serial path; all three produce identical results.
    """
    if jobs is not None:
        from repro.core.sweep import run_sweep, suite_points

        return run_sweep(
            suite_points(benchmarks, cdp_variants, size, config),
            jobs=jobs,
        )
    results: dict[str, RunStats] = {}
    for abbr in benchmarks or benchmark_names():
        results[variant_name(abbr, False)] = run_benchmark(
            abbr, cdp=False, size=size, config=config
        )
        if cdp_variants:
            results[variant_name(abbr, True)] = run_benchmark(
                abbr, cdp=True, size=size, config=config
            )
    return results
