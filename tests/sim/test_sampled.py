"""Unit and determinism tests for the warp-sampled estimator.

The determinism lock is the load-bearing test here: the same
``(application, config, sample_seed)`` must produce the identical
:class:`EstimatedRunStats` regardless of process topology
(``--jobs``) or ambient global-RNG state.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from repro.core.runner import estimate_benchmark
from repro.core.sweep import (
    TraceCache,
    app_key,
    run_point,
    run_sweep,
    sweep_point,
)
from repro.data.datasets import DatasetSize
from repro.kernels import build_application
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator
from repro.sim.replay import CachedApplication, replay_application
from repro.sim.sampled import (
    _CACHE_FIELDS,
    ERROR_BOUNDS,
    SAMPLE_MAX_LAUNCHES_PER_CLASS,
    EstimatedRunStats,
    _extrapolate,
    _Measured,
    _plan,
    estimate_application,
    spearman,
)
from repro.sim.stats import RunStats


@pytest.fixture(scope="module")
def cached_nw() -> CachedApplication:
    return CachedApplication(build_application("NW"))


@pytest.fixture(scope="module")
def cached_sw() -> CachedApplication:
    return CachedApplication(build_application("SW"))


def est_config(**overrides) -> GPUConfig:
    params = {"sample_fraction": 0.1}
    params.update(overrides)
    return GPUConfig(**params)


# -- result shape ----------------------------------------------------------

def test_returns_estimated_run_stats(cached_nw):
    stats = estimate_application(cached_nw, est_config())
    assert isinstance(stats, EstimatedRunStats)
    for metric in ("cycles", "device_time", "ipc",
                   "l1_miss_rate", "l2_miss_rate",
                   "dram_requests", "noc_bytes"):
        lo, hi = stats.interval(metric)
        assert lo <= hi
    sample = stats.sample
    assert sample["requested_fraction"] == 0.1
    assert 0 < sample["sampled_ctas"] <= sample["total_ctas"]
    assert 0 < sample["launches_kept"] <= sample["launches"]


def test_interval_brackets_estimate(cached_nw):
    stats = estimate_application(cached_nw, est_config())
    lo, hi = stats.interval("cycles")
    assert lo <= stats.cycles <= hi
    assert stats.covers("cycles", stats.cycles)
    with pytest.raises(KeyError):
        stats.covers("no_such_metric", 0.0)


def test_exact_passthroughs_are_exact(cached_nw):
    """Counts that do not depend on timing are never estimated."""
    exact = replay_application(cached_nw, GPUSimulator(GPUConfig()))
    stats = estimate_application(cached_nw, est_config())
    assert stats.instructions == exact.instructions
    assert stats.kernel_launches == exact.kernel_launches
    assert stats.device_launches == exact.device_launches
    assert stats.memcpy_calls == exact.memcpy_calls
    assert stats.pci_cycles == exact.pci_cycles


# -- exact fallback --------------------------------------------------------

def test_fraction_one_degenerates_to_exact(cached_nw):
    exact = replay_application(cached_nw, GPUSimulator(GPUConfig()))
    stats = estimate_application(cached_nw, est_config(sample_fraction=1.0))
    assert not stats.estimated
    assert stats.sample["exact_fallback"]
    assert stats.cycles == exact.cycles
    assert stats.ipc == exact.ipc
    lo, hi = stats.interval("cycles")
    assert lo == hi == exact.cycles


# -- misuse guards ---------------------------------------------------------

def test_gpu_simulator_rejects_sample_fraction(cached_nw):
    simulator = GPUSimulator(est_config())
    with pytest.raises(RuntimeError, match="sample"):
        simulator.run_application(cached_nw)


def test_estimate_requires_positive_fraction(cached_nw):
    with pytest.raises(ValueError):
        estimate_application(cached_nw, GPUConfig())


def test_estimate_requires_cached_application():
    with pytest.raises(TypeError):
        estimate_application(build_application("NW"), est_config())


def test_config_validates_sample_knobs():
    with pytest.raises(ValueError):
        GPUConfig(sample_fraction=1.5)
    # The per-class minimum and launch cap are estimator constants,
    # not config fields.
    for knob in ("sample_min_per_class", "sample_max_launches_per_class"):
        with pytest.raises(TypeError):
            GPUConfig(**{knob: 2})


# -- determinism (the satellite lock) --------------------------------------

def test_same_seed_identical_estimates(cached_sw):
    config = est_config()
    first = estimate_application(cached_sw, config)
    second = estimate_application(cached_sw, config)
    assert dataclasses.asdict(first) == dataclasses.asdict(second)


def test_global_rng_is_neither_read_nor_written(cached_sw):
    config = est_config()
    random.seed(12345)
    state = random.getstate()
    first = estimate_application(cached_sw, config)
    assert random.getstate() == state, "estimator touched the global RNG"
    random.seed(99999)
    second = estimate_application(cached_sw, config)
    assert dataclasses.asdict(first) == dataclasses.asdict(second)


def test_seed_changes_the_sample(cached_sw):
    """Across several seeds the drawn samples must actually vary."""
    estimates = {
        estimate_application(
            cached_sw, est_config(sample_seed=seed)
        ).cycles
        for seed in range(5)
    }
    assert len(estimates) > 1


def test_identical_across_jobs():
    """Same points, jobs=0 vs jobs=2: bit-identical EstimatedRunStats.

    This is the determinism satellite: the seed travels inside the
    point's config across the process-pool boundary, and no worker
    ever consults process-local state to draw the sample.
    """
    config = est_config()
    points = [
        sweep_point(f"{abbr}|{cdp}", abbr, config, cdp=cdp)
        for abbr in ("NW", "SW")
        for cdp in (False, True)
    ]
    serial = run_sweep(points, jobs=0, store=None)
    pooled = run_sweep(points, jobs=2, store=None)
    for label in serial:
        assert dataclasses.asdict(serial[label]) == dataclasses.asdict(
            pooled[label]
        ), label
        assert isinstance(serial[label], EstimatedRunStats)


# -- sweep-engine routing --------------------------------------------------

def test_run_point_routes_to_estimator():
    point = sweep_point("NW-est", "NW", est_config())
    stats = run_point(point)
    assert isinstance(stats, EstimatedRunStats)
    assert stats.interval("cycles") is not None


def test_exact_and_estimated_points_share_traces():
    cache = TraceCache()
    exact_point = sweep_point("NW", "NW", GPUConfig())
    est_point = sweep_point("NW-est", "NW", est_config())
    run_point(exact_point, cache)
    assert (cache.misses, cache.hits) == (1, 0)
    stats = run_point(est_point, cache)
    assert (cache.misses, cache.hits) == (1, 1)
    assert isinstance(stats, EstimatedRunStats)


def test_app_key_excludes_sample_knobs():
    assert app_key(sweep_point("NW", "NW", GPUConfig())) == app_key(
        sweep_point("NW-est", "NW", est_config(sample_seed=7))
    )


def test_estimate_benchmark_defaults_to_ten_percent():
    stats = estimate_benchmark("NW")
    assert isinstance(stats, EstimatedRunStats)
    assert stats.sample["requested_fraction"] == 0.1


# -- stages: plan and extrapolate, no simulator ----------------------------

def _measured(plan, spans, probes=()) -> _Measured:
    """A hand-built measurement: zero counters, uniform CTA durations."""
    zero = {
        "l1": [0] * len(_CACHE_FIELDS),
        "const_cache": [0] * len(_CACHE_FIELDS),
        "l2": [0] * len(_CACHE_FIELDS),
        "stalls": {},
    }
    return _Measured(
        stats=RunStats(),
        spans=list(spans),
        durations=[
            [[span / 2] * len(chosen) for chosen in lp.sampled]
            for lp, span in zip(plan.plans, spans)
        ],
        deltas=[zero] * len(plan.plans),
        probes=list(probes),
        boosts=[0.0] * len(plan.plans),
        dirty_left=0,
    )


def test_plan_caps_launch_strata_without_warmup():
    """NvB's comparisons are independent: no warm-up, and the launch
    cap binds on its 256-launch stratum."""
    cached = CachedApplication(
        build_application("NvB", size=DatasetSize.MEDIUM)
    )
    plan = _plan(cached, est_config())
    assert plan.warm_depth == 0 and not plan.warmup
    kept = Counter(lp.sig for lp in plan.plans)
    assert max(kept.values()) == SAMPLE_MAX_LAUNCHES_PER_CLASS
    assert max(len(m) for m in plan.launch_strata.values()) > 10 * 24


def test_plan_warms_up_wavefronts_with_whole_launches(cached_sw):
    plan = _plan(cached_sw, est_config())
    assert plan.warm_depth >= 1 and plan.warmup
    assert all(lp.n_sampled == lp.num_ctas for lp in plan.plans)
    assert plan.span_kinds.count("kept") == len(plan.plans)


def test_extrapolate_hyperbola_pole_hits_serial_cap():
    """A probe far below the measurement puts the hyperbola's pole
    before the full grid: the launch saturates at the serialized
    scaling of its measured duration."""
    cached = CachedApplication(build_application("CLUSTER", cdp=True))
    config = est_config()
    plan = _plan(cached, config)
    assert len(plan.plans) == 1 and len(plan.probed) == 1
    (lp,) = plan.plans
    w1, d1 = float(lp.sampled_work), 1000.0
    w2, d2 = w1 / 2, 1.0
    ratio = d1 / d2
    assert (ratio - 1) / (ratio * w1 - w2) * lp.total_work >= 1.0
    est = _extrapolate(plan, _measured(plan, [d1], [(w2, d2)]), config)
    assert est.cycles == round(d1 * lp.total_work / w1)


def test_extrapolate_fully_observed_strata_have_no_sampling_error(
    cached_sw,
):
    """SW's kept launches run whole, so every CTA stratum is fully
    observed; with extrapolated launches at one exact rate, the cycle
    interval is the declared model margin alone."""
    config = est_config()
    plan = _plan(cached_sw, config)
    spans = [3.0 * plan.basis[lp.index] for lp in plan.plans]
    est = _extrapolate(plan, _measured(plan, spans), config)
    lo, hi = est.interval("cycles")
    margin = ERROR_BOUNDS["cycles_rel"] * (hi + lo) / 2
    assert (hi - lo) / 2 == pytest.approx(margin, rel=1e-9)
    assert est.cycles == pytest.approx(3.0 * sum(plan.basis), rel=1e-6)


# -- ranking helpers -------------------------------------------------------

def test_spearman_perfect_and_reversed():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert spearman(xs, xs) == pytest.approx(1.0)
    assert spearman(xs, list(reversed(xs))) == pytest.approx(-1.0)


def test_spearman_handles_ties():
    rho = spearman([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0])
    assert rho == pytest.approx(1.0)
