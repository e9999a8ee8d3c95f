"""Accuracy suite: the estimator against exact runs, whole suite.

Three claims, mirroring the validation contract in DESIGN.md:

- **coverage**: for every benchmark x CDP variant, the exact value of
  each estimated metric falls inside the declared confidence interval
  (the intervals *are* the estimator's error bounds).  On the two
  heaviest large workloads (PairHMM: few launches with many CTAs; NvB:
  thousands of 1-CTA launches) the ``slow`` cells also bound the
  replayed work at the sample fraction, the work-side form of the
  estimator's speedup.
- **ranking**: estimated cycle counts preserve the exact ordering
  of the whole 20-variant suite at the baseline config and across the
  paper's sweep axes (Spearman >= 0.95) — config-space exploration only
  needs ordering, so this is the property ``--estimate`` sweeps rely
  on.  The fast axis test covers one axis on a subset; the
  ``slow``-marked matrix covers every Fig 11-22 axis on all 20 variants.
- **honest CIs**: over repeated seeds, the exact value lands inside
  the interval at no less than the nominal rate.  The fast test samples
  a few seeds on two benchmarks; the ``slow`` version sweeps the suite.
"""

from __future__ import annotations

import pytest

from repro.core.config_presets import (
    CACHE_SWEEP,
    CTA_SCALING,
    MEM_CONTROLLERS,
    NOC_BANDWIDTH_SWEEP,
    NOC_LATENCY_SWEEP,
    SCHEDULERS,
    TOPOLOGIES,
    baseline_config,
    scale_cta_resources,
    with_cache_sizes,
    with_controller,
    with_topology,
)
from repro.data.datasets import DatasetSize
from repro.kernels import benchmark_names, build_application
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator
from repro.sim.replay import CachedApplication, replay_application
from repro.sim.sampled import estimate_application, spearman

SAMPLE_FRACTION = 0.1

VARIANTS = [
    (abbr, cdp) for abbr in benchmark_names() for cdp in (False, True)
]


@pytest.fixture(scope="module")
def suite_runs():
    """(exact, estimated) stats per variant, traces built once."""
    config = baseline_config()
    est_config = config.with_(sample_fraction=SAMPLE_FRACTION)
    runs = {}
    for abbr, cdp in VARIANTS:
        cached = CachedApplication(build_application(abbr, cdp=cdp))
        exact = replay_application(cached, GPUSimulator(config))
        estimate = estimate_application(cached, est_config)
        runs[(abbr, cdp)] = (exact, estimate)
    return runs


# -- per-variant coverage --------------------------------------------------

@pytest.mark.parametrize("abbr,cdp", VARIANTS,
                         ids=[f"{a}{'-CDP' if c else ''}" for a, c in VARIANTS])
def test_exact_inside_declared_interval(suite_runs, abbr, cdp):
    exact, estimate = suite_runs[(abbr, cdp)]
    assert estimate.covers("cycles", exact.cycles)
    assert estimate.covers("device_time", exact.device_time())
    assert estimate.covers("ipc", exact.ipc)
    assert estimate.covers("l1_miss_rate", exact.l1.miss_rate)
    assert estimate.covers("l2_miss_rate", exact.l2.miss_rate)
    assert estimate.covers("dram_requests", exact.dram.requests)
    assert estimate.covers("noc_bytes", exact.noc.bytes)


@pytest.mark.parametrize("abbr,cdp", VARIANTS,
                         ids=[f"{a}{'-CDP' if c else ''}" for a, c in VARIANTS])
def test_stall_fractions_inside_intervals(suite_runs, abbr, cdp):
    exact, estimate = suite_runs[(abbr, cdp)]
    for reason, fraction in exact.stall_breakdown().items():
        metric = f"stall_{reason}"
        if estimate.interval(metric) is not None:
            assert estimate.covers(metric, fraction), reason


@pytest.mark.parametrize("abbr,cdp", VARIANTS,
                         ids=[f"{a}{'-CDP' if c else ''}" for a, c in VARIANTS])
def test_exact_counts_pass_through(suite_runs, abbr, cdp):
    """Timing-independent counters must be exact, not estimated."""
    exact, estimate = suite_runs[(abbr, cdp)]
    assert estimate.instructions == exact.instructions
    assert estimate.kernel_launches == exact.kernel_launches
    assert estimate.device_launches == exact.device_launches
    assert estimate.memcpy_calls == exact.memcpy_calls


@pytest.mark.slow
@pytest.mark.parametrize("abbr", ["PairHMM", "NvB"])
def test_large_estimate_covers_at_a_tenth_of_the_work(abbr):
    config = baseline_config()
    cached = CachedApplication(
        build_application(abbr, size=DatasetSize.LARGE)
    )
    exact = replay_application(cached, GPUSimulator(config))
    estimate = estimate_application(
        cached, config.with_(sample_fraction=SAMPLE_FRACTION)
    )
    assert estimate.covers("cycles", exact.cycles)
    assert estimate.sample["achieved_work_fraction"] <= SAMPLE_FRACTION


# -- ranking preservation ---------------------------------------------------

def test_suite_ranking_preserved(suite_runs):
    """The estimate orders all 20 variants like the exact runs do."""
    exact_cycles = [float(suite_runs[key][0].cycles) for key in VARIANTS]
    est_cycles = [float(suite_runs[key][1].cycles) for key in VARIANTS]
    rho = spearman(exact_cycles, est_cycles)
    assert rho >= 0.95, rho


def _axis_configs(axis: str) -> list[GPUConfig]:
    """The Fig 11-22 config lists, keyed by sweep axis."""
    config = baseline_config()
    if axis == "cta":  # Fig 11: capacity binds only on a small machine
        small = config.with_(num_sms=4)
        return [scale_cta_resources(small, f) for f in CTA_SCALING]
    if axis == "cache":  # Figs 12-14
        return [with_cache_sizes(config, l1, l2) for l1, l2 in CACHE_SWEEP]
    if axis == "memory":  # Fig 15
        return [config, config.with_(perfect_memory=True)]
    if axis == "controller":  # Figs 16-18
        return [with_controller(config, c) for c in MEM_CONTROLLERS]
    if axis == "scheduler":  # Fig 19
        return [config.with_(scheduler=s) for s in SCHEDULERS]
    if axis == "topology":  # Fig 20
        return [with_topology(config, t) for t in TOPOLOGIES]
    if axis == "noc-latency":  # Fig 21
        return [with_topology(config, "mesh", router_delay=d)
                for d in NOC_LATENCY_SWEEP]
    if axis == "noc-bandwidth":  # Fig 22
        return [with_topology(config, "xbar", channel_bytes=b)
                for b in NOC_BANDWIDTH_SWEEP]
    raise ValueError(axis)


def _axis_spearman(axis: str, variants) -> list[float]:
    """Per-config Spearman of estimated-vs-exact cycles across variants.

    Traces are materialized once per variant and replayed at every
    config of the axis (exact) and estimated at the same configs.
    """
    rhos = []
    apps = {
        (abbr, cdp): CachedApplication(build_application(abbr, cdp=cdp))
        for abbr, cdp in variants
    }
    for config in _axis_configs(axis):
        est_config = config.with_(sample_fraction=SAMPLE_FRACTION)
        exact_cycles = []
        est_cycles = []
        for key in variants:
            exact_cycles.append(float(
                replay_application(apps[key], GPUSimulator(config)).cycles
            ))
            est_cycles.append(float(
                estimate_application(apps[key], est_config).cycles
            ))
        rhos.append(spearman(exact_cycles, est_cycles))
    return rhos


def test_scheduler_axis_preserves_ranking():
    """Fast ranking check: one axis, six variants."""
    variants = [(a, c) for a in ("NW", "STAR", "CLUSTER")
                for c in (False, True)]
    for rho in _axis_spearman("scheduler", variants):
        assert rho >= 0.95


@pytest.mark.slow
@pytest.mark.parametrize("axis", [
    "cta", "cache", "memory", "controller",
    "scheduler", "topology", "noc-latency", "noc-bandwidth",
])
def test_all_axes_preserve_ranking(axis):
    """Fig 11-22 matrix: every axis, all 20 variants, Spearman >= 0.95."""
    for rho in _axis_spearman(axis, VARIANTS):
        assert rho >= 0.95, (axis, rho)


# -- honest confidence intervals -------------------------------------------

#: Minimum acceptable coverage.  Intervals carry the declared model
#: margin on top of the statistical width, so observed coverage should
#: exceed the nominal 95%; the floor leaves room for seed-to-seed noise
#: in small samples without ever accepting a sub-nominal estimator.
COVERAGE_FLOOR = 0.9
CI_METRICS = ("cycles", "l1_miss_rate", "l2_miss_rate")


def _coverage_checks(benchmarks, seeds):
    """Yield one bool per (benchmark, seed, metric) coverage check."""
    config = baseline_config()
    for abbr in benchmarks:
        cached = CachedApplication(build_application(abbr))
        exact = replay_application(cached, GPUSimulator(config))
        exact_values = {
            "cycles": exact.cycles,
            "l1_miss_rate": exact.l1.miss_rate,
            "l2_miss_rate": exact.l2.miss_rate,
        }
        for seed in seeds:
            estimate = estimate_application(
                cached,
                config.with_(sample_fraction=SAMPLE_FRACTION,
                             sample_seed=seed),
            )
            for metric in CI_METRICS:
                yield estimate.covers(metric, exact_values[metric])


def test_intervals_are_honest_sampled():
    """Fast CI-honesty check: two benchmarks, a few seeds."""
    checks = list(_coverage_checks(["NW", "SW"], range(5)))
    assert sum(checks) / len(checks) >= COVERAGE_FLOOR


@pytest.mark.slow
def test_intervals_are_honest_full():
    """Whole-suite CI honesty over repeated seeds."""
    checks = list(_coverage_checks(benchmark_names(), range(10)))
    assert sum(checks) / len(checks) >= 0.95
