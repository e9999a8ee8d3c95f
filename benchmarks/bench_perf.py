"""Wall-clock benchmarks of the simulator's fast paths.

Three harnesses, each locking performance to a bit-identity check:

- **sweep** (``BENCH_sweep.json``): the PR 1 sweep engine — serial vs
  ``jobs=1`` vs ``jobs=N`` over a fixed config sweep, workers replaying
  materialized traces across the points of their group.
- **run** (``BENCH_run.json``): the single-run event core — one
  simulation of the slowest benchmark (PairHMM, large dataset) through
  the event-maintained issue loop (``event_core=True``) vs the
  scan-per-decision reference core (``event_core=False``).  Both cores
  replay the same materialized traces, so the measurement isolates the
  issue loop itself; trace generation time is reported separately.
- **trace** (``BENCH_trace.json``): trace materialization itself — the
  live generator (templates off) vs template instantiation vs a warm
  binary trace-store load, on the same application.  All three arms
  must replay to identical ``RunStats``.
- **sampled** (``BENCH_sampled.json``): the warp-sampled estimator —
  estimation vs exact replay on the suite's two heaviest large
  workloads (the >= 10x claim) plus an exact-vs-estimated whole-suite
  ranking check (Spearman correlation and ranking inversions on cycle
  counts, CI coverage per variant).
- **service** (``BENCH_service.json``): the simulation service — cold
  request latency (queue + fork + simulate + serialize over live HTTP)
  vs the content-addressed cache hit answering the identical request,
  plus sustained cache-hit requests/sec from one client.  The hit must
  carry bit-identical stats to the cold run and dispatch no worker.
- **dist** (``BENCH_dist.json``): the distributed sweep coordinator —
  the same point grid through sequential ``run_sweep`` (``jobs=0``) vs
  ``run_dsweep`` over two local subprocess workers.  The merge must be
  bit-identical to the sequential reference (asserted everywhere); the
  speedup claim only arms on hosts with >= 2 effective CPUs, since two
  workers on one core measure dispatch overhead, not the coordinator.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py           # all, full
    PYTHONPATH=src python benchmarks/bench_perf.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_perf.py --only run

``--quick`` shrinks the workloads (small dataset, reduced sweep) so CI
can assert ``identical_stats`` in seconds; speedups are still reported
but only the full run's numbers are meaningful.  Also runs under pytest
as part of the ``benchmarks/`` harness.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.core.config_presets import (
    CACHE_SWEEP,
    SCHEDULERS,
    baseline_config,
    with_cache_sizes,
)
from repro.core.runner import variant_name
from repro.core.sweep import default_jobs, run_sweep, sweep_point
from repro.data.datasets import DatasetSize
from repro.kernels import build_application
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator
from repro.sim.replay import CachedApplication, replay_application

POOL_JOBS = 4
_ROOT = Path(__file__).resolve().parent.parent
SWEEP_RESULT_PATH = _ROOT / "BENCH_sweep.json"
RUN_RESULT_PATH = _ROOT / "BENCH_run.json"
TRACE_RESULT_PATH = _ROOT / "BENCH_trace.json"
SAMPLED_RESULT_PATH = _ROOT / "BENCH_sampled.json"
SERVICE_RESULT_PATH = _ROOT / "BENCH_service.json"
DIST_RESULT_PATH = _ROOT / "BENCH_dist.json"

#: Local subprocess workers for the ``dist`` benchmark.
DIST_WORKERS = 2

#: The sampled-estimation benchmark's operating point (the estimator's
#: documented default fraction).
SAMPLE_FRACTION = 0.1

#: The single-run benchmark target: the slowest benchmark at the
#: largest dataset (PairHMM large dominates suite wall time).
RUN_BENCHMARK = "PairHMM"


def timed(func, *args, **kwargs):
    """Best-of-2 wall clock (standard practice: rejects scheduler noise)."""
    best = None
    for _ in range(2):
        start = time.perf_counter()
        result = func(*args, **kwargs)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


# -- sweep benchmark (PR 1) -------------------------------------------------

def sweep_points(quick: bool = False):
    """The fixed workload: 3 benchmarks x CDP x 10 configs = 60 points."""
    config = baseline_config()
    configs = [
        (f"l1={l1 // 1024}k", with_cache_sizes(config, l1, l2))
        for l1, l2 in CACHE_SWEEP
    ] + [
        (f"sched={sched}", config.with_(scheduler=sched))
        for sched in SCHEDULERS
    ]
    benchmarks = ("NW",) if quick else ("NW", "STAR", "CLUSTER")
    if quick:
        configs = configs[:4]
    return [
        sweep_point(f"{variant_name(abbr, cdp)}|{tag}", abbr, cfg, cdp=cdp)
        for abbr in benchmarks
        for cdp in (False, True)
        for tag, cfg in configs
    ]


def run_serial(points):
    """The no-reuse baseline: every point drives the live generators."""
    return {
        p.label: GPUSimulator(p.config).run_application(
            build_application(p.abbr, cdp=p.cdp, size=p.size)
        )
        for p in points
    }


def main_sweep(quick: bool = False) -> dict:
    points = sweep_points(quick)
    # Pooled paths run first: forking from a heap the serial pass has
    # already churned through makes every worker pay copy-on-write
    # faults that have nothing to do with the sweep engine.
    jobsn, jobsn_s = timed(run_sweep, points, jobs=POOL_JOBS)
    jobs1, jobs1_s = timed(run_sweep, points, jobs=1)
    serial, serial_s = timed(run_serial, points)

    identical = serial == jobs1 == jobsn
    report = {
        "points": len(points),
        "cpu_count": os.cpu_count(),
        "jobs_n": POOL_JOBS,
        "quick": quick,
        "serial_s": round(serial_s, 3),
        "jobs1_s": round(jobs1_s, 3),
        f"jobs{POOL_JOBS}_s": round(jobsn_s, 3),
        "speedup_jobs1": round(serial_s / jobs1_s, 2),
        f"speedup_jobs{POOL_JOBS}": round(serial_s / jobsn_s, 2),
        "identical_stats": identical,
    }
    print(json.dumps(report, indent=2))
    # Identity gates the write: a divergent measurement must never
    # become the recorded baseline.
    assert identical, "sweep paths disagree with the serial reference"
    if not quick:
        SWEEP_RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


# -- single-run benchmark (PR 2) --------------------------------------------

def main_run(quick: bool = False) -> dict:
    """Event core vs reference core on one simulation of the slowest
    benchmark, same materialized traces, best-of-2 each.

    Also measures the telemetry hooks (PR 3): the telemetry-*off* run
    is the headline ``event_core_s`` number, compared against the
    previously recorded ``BENCH_run.json`` to bound the cost of the
    dormant ``is not None`` hook checks (<2% contract); a telemetry-*on*
    run reports the live sampling cost for reference.
    """
    size = DatasetSize.SMALL if quick else DatasetSize.LARGE
    recorded = None
    if RUN_RESULT_PATH.exists():
        try:
            recorded = json.loads(RUN_RESULT_PATH.read_text())
        except (OSError, ValueError):
            recorded = None
    gen_start = time.perf_counter()
    cached = CachedApplication(
        build_application(RUN_BENCHMARK, cdp=False, size=size)
    )
    gen_s = time.perf_counter() - gen_start

    def simulate(event_core: bool, telemetry_interval: int = 0):
        simulator = GPUSimulator(GPUConfig(
            event_core=event_core, telemetry_interval=telemetry_interval
        ))
        return replay_application(cached, simulator)

    fast_stats, fast_s = timed(simulate, True)
    ref_stats, ref_s = timed(simulate, False)
    tel_stats, tel_s = timed(simulate, True, telemetry_interval=10_000)

    identical = (
        dataclasses.asdict(fast_stats) == dataclasses.asdict(ref_stats)
    )
    # Telemetry must never perturb the timing model, only observe it.
    tel_clean = dataclasses.asdict(tel_stats)
    tel_clean["telemetry"] = None
    tel_neutral = tel_clean == dataclasses.asdict(fast_stats)
    report = {
        "benchmark": RUN_BENCHMARK,
        "size": size.name.lower(),
        "quick": quick,
        "trace_gen_s": round(gen_s, 3),
        "event_core_s": round(fast_s, 3),
        "reference_s": round(ref_s, 3),
        "speedup": round(ref_s / fast_s, 2),
        "telemetry_on_s": round(tel_s, 3),
        "telemetry_on_overhead": round(tel_s / fast_s - 1, 4),
        "cycles": int(fast_stats.cycles),
        "identical_stats": identical,
        "telemetry_neutral": tel_neutral,
    }
    # Telemetry-off overhead vs the last recorded run of the same
    # workload: the dormant hooks' <2% budget, measured where the
    # recorded baseline is comparable (same benchmark/size/mode).
    if recorded is not None and all(
        recorded.get(k) == report[k] for k in ("benchmark", "size", "quick")
    ) and recorded.get("event_core_s"):
        report["recorded_event_core_s"] = recorded["event_core_s"]
        report["telemetry_off_overhead_vs_recorded"] = round(
            fast_s / recorded["event_core_s"] - 1, 4
        )
        if recorded.get("trace_gen_s"):
            # Trace generation now runs through the template layer;
            # the recorded delta tracks what that layer saves here.
            report["recorded_trace_gen_s"] = recorded["trace_gen_s"]
            report["trace_gen_speedup_vs_recorded"] = round(
                recorded["trace_gen_s"] / gen_s, 2
            )
    print(json.dumps(report, indent=2))
    # Identity gates the write: a run where any arm diverged (or the
    # telemetry hooks perturbed timing) must fail loudly instead of
    # silently becoming the recorded baseline the next run compares to.
    assert identical, "event core diverged from the reference core"
    assert tel_neutral, "telemetry sampling changed simulation results"
    if not quick:
        RUN_RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


# -- trace materialization benchmark (PR 5) ---------------------------------

def main_trace(quick: bool = False) -> dict:
    """Live generator vs template instantiation vs warm store load.

    One application (PairHMM, the suite's heaviest trace), three
    materialization arms, best-of-2 each; every arm must replay to
    bit-identical ``RunStats`` (the replay config is irrelevant to the
    identity claim — traces are config-independent — so a small
    machine keeps the check fast).
    """
    from repro.core.sweep import app_key, sweep_point
    from repro.sim.trace_store import TraceStore

    size = DatasetSize.SMALL if quick else DatasetSize.LARGE
    app = build_application(RUN_BENCHMARK, cdp=False, size=size)
    point = sweep_point(
        "trace-bench", RUN_BENCHMARK, baseline_config(), size=size
    )
    key = app_key(point)

    live, generator_s = timed(
        lambda: CachedApplication(app, template=False)
    )
    templated, template_s = timed(lambda: CachedApplication(app))

    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(tmp)
        _, store_save_s = timed(store.save, key, templated)
        stored, store_load_s = timed(store.load, key)
    assert stored is not None, "store round trip failed"

    config = GPUConfig(num_sms=8)
    reference = dataclasses.asdict(
        replay_application(live, GPUSimulator(config))
    )
    identical = all(
        dataclasses.asdict(
            replay_application(entry, GPUSimulator(config))
        ) == reference
        for entry in (templated, stored)
    )
    report = {
        "benchmark": RUN_BENCHMARK,
        "size": size.name.lower(),
        "quick": quick,
        "generator_s": round(generator_s, 3),
        "template_s": round(template_s, 3),
        "store_save_s": round(store_save_s, 3),
        "store_load_s": round(store_load_s, 3),
        "speedup_template": round(generator_s / template_s, 2),
        "speedup_store": round(generator_s / store_load_s, 2),
        "template_hits": templated.template_hits,
        "template_live": templated.template_live,
        "identical_stats": identical,
    }
    print(json.dumps(report, indent=2))
    assert identical, "fast trace paths diverged from the live generator"
    if not quick:
        TRACE_RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


# -- sampled estimation benchmark (PR 7) ------------------------------------

def main_sampled(quick: bool = False) -> dict:
    """Warp-sampled estimation vs exact replay.

    Two claims, measured in one invocation:

    - **speedup**: estimation at ``sample_fraction=0.1`` must beat the
      exact replay of the same materialized traces by >= 10x on the
      suite's two heaviest large workloads (PairHMM: few launches with
      many CTAs; NvB: thousands of 1-CTA launches — the two sampling
      regimes).  The exact cycle count must fall inside the estimate's
      declared confidence interval.
    - **ranking**: estimated cycle counts across the whole 20-variant
      suite must preserve the exact mode's ranking (Spearman >= 0.95;
      the raw inversion count is recorded).  Config-space exploration
      only needs ordering, so this is the property sweeps rely on.

    ``--quick`` runs only the small-suite ranking check.
    """
    from repro.core.sweep import run_sweep, suite_points
    from repro.sim.sampled import (
        estimate_application,
        ranking_inversions,
        spearman,
    )

    config = baseline_config()
    est_config = config.with_(sample_fraction=SAMPLE_FRACTION)

    # Whole-suite ranking check (small datasets; both sweeps share
    # traces because sample knobs are not part of the trace signature).
    points = suite_points(config=config)
    est_points = [
        dataclasses.replace(p, config=est_config) for p in points
    ]
    exact, exact_suite_s = timed(run_sweep, points, jobs=0, store=None)
    est, est_suite_s = timed(run_sweep, est_points, jobs=0, store=None)
    names = [p.label for p in points]
    exact_cycles = [exact[n].cycles for n in names]
    est_cycles = [est[n].cycles for n in names]
    rank_rho = spearman(exact_cycles, est_cycles)
    exact_order = sorted(names, key=lambda n: (exact[n].cycles, n))
    est_order = sorted(names, key=lambda n: (est[n].cycles, n))
    inversions = ranking_inversions(exact_order, est_order)
    suite_covered = {
        n: est[n].covers("cycles", exact[n].cycles) for n in names
    }

    report = {
        "quick": quick,
        "sample_fraction": SAMPLE_FRACTION,
        "suite": {
            "variants": len(names),
            "exact_s": round(exact_suite_s, 3),
            "estimate_s": round(est_suite_s, 3),
            "spearman_cycles": round(rank_rho, 4),
            "ranking_inversions": inversions,
            "max_inversions": len(names) * (len(names) - 1) // 2,
            "ci_covered": sum(suite_covered.values()),
            "ci_misses": sorted(
                n for n, ok in suite_covered.items() if not ok
            ),
        },
    }

    # Large-workload speedup claim (full mode only: large traces take
    # tens of seconds to build, which --quick cannot afford).
    if not quick:
        large = {}
        for abbr in ("PairHMM", "NvB"):
            cached = CachedApplication(
                build_application(abbr, cdp=False, size=DatasetSize.LARGE)
            )
            exact_stats, exact_s = timed(
                lambda: replay_application(cached, GPUSimulator(config))
            )
            est_stats, est_s = timed(
                estimate_application, cached, est_config
            )
            error = est_stats.cycles / exact_stats.cycles - 1
            large[abbr] = {
                "exact_s": round(exact_s, 3),
                "estimate_s": round(est_s, 3),
                "speedup": round(exact_s / est_s, 2),
                "exact_cycles": int(exact_stats.cycles),
                "estimated_cycles": int(est_stats.cycles),
                "cycles_error": round(error, 4),
                "ci_covers_exact": est_stats.covers(
                    "cycles", exact_stats.cycles
                ),
            }
        report["large"] = large

    print(json.dumps(report, indent=2))
    assert report["suite"]["spearman_cycles"] >= 0.95, (
        "estimated suite ranking diverged from exact"
    )
    assert not report["suite"]["ci_misses"], (
        "exact cycles escaped the declared confidence interval for: "
        f"{report['suite']['ci_misses']}"
    )
    if not quick:
        for abbr, row in report["large"].items():
            assert row["ci_covers_exact"], (
                f"{abbr}: exact cycles outside the estimate's CI"
            )
        SAMPLED_RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


# -- service benchmark (PR 8) -----------------------------------------------

def main_service(quick: bool = False) -> dict:
    """Cold request vs content-addressed cache hit, over live HTTP.

    One in-process server (ephemeral port, fresh cache in a temp dir),
    one client.  The cold arm pays the full service path — schema
    validation, queueing, a forked worker running the simulation,
    serialization, HTTP — on the suite's slowest benchmark.  The hit
    arm repeats the identical request: it must answer inline from the
    cache with *bit-identical* stats and dispatch no worker
    (``jobs_executed`` stays 1), which gates the recorded numbers.
    Sustained hit throughput is measured with sequential requests from
    one client — on this 1-CPU GIL container that is the honest
    number; a parallel-client rate would mostly measure thread churn.
    """
    import threading

    from repro.service.client import ServiceClient
    from repro.service.server import make_server

    size = DatasetSize.SMALL if quick else DatasetSize.LARGE
    payload = {"benchmark": RUN_BENCHMARK, "size": size.value}
    hit_rounds = 20 if quick else 100
    effective_cpus = default_jobs()

    with tempfile.TemporaryDirectory() as tmp:
        server = make_server(
            "127.0.0.1", 0,
            cache_root=Path(tmp) / "results",
            artifact_root=Path(tmp) / "artifacts",
            workers=2,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(*server.server_address)

            start = time.perf_counter()
            cold = client.run("simulate", timeout=600, **payload)
            cold_s = time.perf_counter() - start
            cold_stats = cold["result"]["stats"]

            def one_hit():
                view = client.simulate(**payload)
                assert view["cached"], "expected a cache hit"
                return view

            hit_view, hit_s = timed(one_hit)
            hit_stats = hit_view["result"]["stats"]

            start = time.perf_counter()
            for _ in range(hit_rounds):
                one_hit()
            hit_sweep_s = time.perf_counter() - start

            metrics = client.metrics()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    identical = json.dumps(hit_stats, sort_keys=True) == json.dumps(
        cold_stats, sort_keys=True
    )
    no_worker = metrics["jobs_executed"] == 1
    report = {
        "benchmark": RUN_BENCHMARK,
        "size": size.name.lower(),
        "quick": quick,
        "effective_cpus": effective_cpus,
        "gil_enabled": getattr(sys, "_is_gil_enabled", lambda: True)(),
        "cold_request_s": round(cold_s, 3),
        "cache_hit_s": round(hit_s, 4),
        "speedup_cache_hit": round(cold_s / hit_s, 1),
        "cache_hit_rps": round(hit_rounds / hit_sweep_s, 1),
        "queue_wait_s": round(
            metrics["stage_latency"]["queue_wait_s"]["mean_s"], 4
        ),
        "sim_s": round(metrics["stage_latency"]["sim_s"]["mean_s"], 3),
        "jobs_executed": metrics["jobs_executed"],
        "identical_stats": identical,
        "no_worker_on_hit": no_worker,
    }
    print(json.dumps(report, indent=2))
    assert identical, "cache hit returned different stats than the cold run"
    assert no_worker, "cache hit dispatched a worker"
    if not quick:
        SERVICE_RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


# -- distributed sweep benchmark (PR 10) ------------------------------------

def main_dist(quick: bool = False) -> dict:
    """Sequential ``run_sweep`` vs the distributed coordinator.

    Same fixed point grid as the ``sweep`` benchmark, dispatched over
    :data:`DIST_WORKERS` local subprocess workers in chunks.  Workers
    pay a one-time interpreter spawn (reported separately as
    ``spawn_s``); the measured arm is the coordinator dispatch +
    simulate + merge on an already-warm pool, which is what a second
    sweep against the same pool costs.  The merge must be bit-identical
    to the sequential reference — that assertion gates the recorded
    numbers everywhere.  The speedup claim is honest about the host: it
    only arms when >= 2 effective CPUs are available, because two
    subprocess workers sharing one core measure scheduling overhead,
    not the coordinator.
    """
    from repro.dist import LocalProcessLauncher, run_dsweep

    points = sweep_points(quick)
    effective_cpus = default_jobs()

    with LocalProcessLauncher(workers=DIST_WORKERS) as launcher:
        spawn_start = time.perf_counter()
        launcher.run_chunk(0, "warmup", points[:1], timeout=None)
        spawn_s = time.perf_counter() - spawn_start
        dist, dist_s = timed(run_dsweep, points, launcher)
        coord = dict(run_dsweep.last_stats)
    serial, serial_s = timed(run_sweep, points, jobs=0)

    identical = {n: dataclasses.asdict(s) for n, s in dist.items()} == {
        n: dataclasses.asdict(s) for n, s in serial.items()
    }
    speedup = round(serial_s / dist_s, 2)
    report = {
        "points": len(points),
        "quick": quick,
        "workers": DIST_WORKERS,
        "effective_cpus": effective_cpus,
        "spawn_s": round(spawn_s, 3),
        "serial_s": round(serial_s, 3),
        "dist_s": round(dist_s, 3),
        "speedup": speedup,
        "chunks": coord["chunks"],
        "retries": coord["retries"],
        "redispatches": coord["redispatches"],
        "identical_stats": identical,
        "speedup_claim_armed": effective_cpus >= 2,
    }
    if effective_cpus < 2:
        report["speedup_note"] = (
            "1-CPU host: both workers share one core, so dist_s measures "
            "dispatch overhead — the speedup claim is not armed"
        )
    print(json.dumps(report, indent=2))
    assert identical, "distributed merge diverged from sequential run_sweep"
    if not quick:
        DIST_RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


# -- pytest entry points ----------------------------------------------------

def test_sweep_speedup_and_identity():
    """Pooled sweep must beat fresh-serial by >= 2x with identical stats."""
    report = main_sweep()
    assert report["identical_stats"]
    assert report[f"speedup_jobs{POOL_JOBS}"] >= 2.0


def test_single_run_speedup_and_identity():
    """Event core must beat the reference by >= 2x with identical stats."""
    report = main_run()
    assert report["identical_stats"]
    assert report["speedup"] >= 2.0


def test_trace_speedup_and_identity():
    """Template and warm-store materialization must beat the live
    generator by >= 3x each, with bit-identical replay results."""
    report = main_trace()
    assert report["identical_stats"]
    assert report["speedup_template"] >= 3.0
    assert report["speedup_store"] >= 3.0


def test_sampled_speedup_and_accuracy():
    """Estimation must beat exact replay >= 10x on the large workloads
    with the exact cycle count inside the declared CI, and preserve the
    exact suite ranking (Spearman >= 0.95)."""
    report = main_sampled()
    assert report["suite"]["spearman_cycles"] >= 0.95
    for abbr in ("PairHMM", "NvB"):
        row = report["large"][abbr]
        assert row["ci_covers_exact"], abbr
        assert row["speedup"] >= 10.0, (abbr, row["speedup"])


def test_service_cache_hit_identity_and_speedup():
    """A cache hit must return bit-identical stats without dispatching
    a worker, and beat the cold request by >= 10x."""
    report = main_service()
    assert report["identical_stats"]
    assert report["no_worker_on_hit"]
    assert report["speedup_cache_hit"] >= 10.0


def test_dist_identity_and_speedup():
    """The distributed merge must be bit-identical to sequential
    ``run_sweep``; the speedup claim only arms on >= 2-CPU hosts."""
    report = main_dist()
    assert report["identical_stats"]
    if report["speedup_claim_armed"]:
        assert report["speedup"] >= 1.3, report["speedup"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced workloads for CI smoke (asserts identity, "
             "does not overwrite the recorded BENCH_*.json)",
    )
    parser.add_argument(
        "--only",
        choices=("sweep", "run", "trace", "sampled", "service", "dist"),
        help="run just one of the benchmarks",
    )
    args = parser.parse_args()
    if args.only in (None, "run"):
        main_run(quick=args.quick)
    if args.only in (None, "sweep"):
        main_sweep(quick=args.quick)
    if args.only in (None, "trace"):
        main_trace(quick=args.quick)
    if args.only in (None, "sampled"):
        main_sampled(quick=args.quick)
    if args.only in (None, "service"):
        main_service(quick=args.quick)
    if args.only in (None, "dist"):
        main_dist(quick=args.quick)


if __name__ == "__main__":
    main()
