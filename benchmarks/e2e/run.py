#!/usr/bin/env python3
"""End-to-end benchmark of the simulator, one workload per invocation.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload cli-run --seed 0 --seconds 10
    python3 benchmarks/e2e/run.py --workload sweep-mem --trace 1
    python3 benchmarks/e2e/run.py --repeat 5            # all workloads
    python3 benchmarks/e2e/run.py --workload est-suite --quick --seconds 1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off.  ``--trace 1`` runs one untraced and one traced pass
of the same ops and reports the per-layer metrics instead (see
``tracing.py``), plus a Chrome trace under ``.e2e/traces/``.  Either
way every op's output is checked against the oracle after the timed
phase, and the last line of standard output is one JSON object::

    {"correct": true, "attempted": 44, "failed": 0, "metrics": {...}}

A failed check still prints that line, with ``correct`` false, and the
command exits 1.  ``--repeat N`` runs every workload N times, each in
its own process with seeds ``seed .. seed+N-1``, alternating workloads,
and prints each metric's median, quartiles and whether its spread is
within its bound.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT = ROOT / ".e2e"
#: Set-up is repeated and its median reported, so one slow start does
#: not decide ``setup_s``.
SETUP_REPEATS = 3

#: Layer metrics only one workload can produce; the others report 0.
WORKLOAD_ONLY = (
    "sampled.work_frac", "sampled.exact_fallbacks", "sampled.est_err_pct",
    "sampled.ci_cover_frac", "sweep.cache_hit_frac", "stats.payload_kb",
    "service.hit_frac", "service.jobs_executed", "service.queue_wait_frac",
    "service.trace_load_frac", "service.sim_frac", "service.serialize_frac",
)


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs for smoke tests")
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    if not args.repeat and args.workload is None:
        parser.error("--workload is required unless --repeat is given")
    return args


def peak_rss_mb() -> float:
    """Peak resident set of this process or any finished child."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def timed_setups(setup):
    """Run ``setup`` ``SETUP_REPEATS`` times; keep the last result.

    Returns the state and each set-up's wall time, raw and scaled to
    the reference host speed measured around it.
    """
    from workloads import calibration_ms, host_scale

    raw, adjusted, state = [], [], None
    before = calibration_ms()
    for index in range(SETUP_REPEATS):
        state = None  # release the previous set-up before the next
        start = time.perf_counter()
        state = setup(index)
        elapsed = time.perf_counter() - start
        after = calibration_ms()
        raw.append(elapsed)
        adjusted.append(elapsed * host_scale(before, after))
        before = after
    return state, raw, adjusted


# -- closed loops ------------------------------------------------------------
def run_closed(workload, seconds):
    from workloads import closed_metrics, measure

    state, setups, adjusted = timed_setups(lambda _: workload.setup())
    record = measure(workload, workload.ops(state), seconds, calibrate=True)
    values = {
        "setup_s": statistics.median(adjusted),
        **closed_metrics(record),
        "peak_rss_mb": peak_rss_mb(),
    }
    failures, verify_s, accuracy = verify_closed(workload, state, record)
    op_ms = {key: [t * 1e3 for t in ts]
             for key, ts in record.times(adjusted=False).items()}
    return SimpleNamespace(
        attempted=len(record.runs),
        failures=failures,
        values=values,
        detail={"setup_runs_s": setups, "verify_s": verify_s,
                "raw_op_ms": op_ms, "calibration_ms": record.calibrations,
                "digests": _digests(record), **accuracy},
    )


def verify_closed(workload, state, record):
    start = time.perf_counter()
    failures, accuracy = workload.verify(state, record)
    return record.errors + failures, time.perf_counter() - start, accuracy


def run_closed_traced(workload, tracer):
    from tracing import install
    from workloads import Record, measure

    state = workload.setup()
    plain = measure(workload, workload.ops(state), 0)
    uninstall = install(tracer)
    try:
        start = time.perf_counter()
        with tracer.root("setup"):
            state = workload.setup()
        traced = measure(workload, workload.ops(state), 0, tracer=tracer)
        wall = time.perf_counter() - start
    finally:
        uninstall()
    record = Record(runs=plain.runs + traced.runs,
                    errors=plain.errors + traced.errors)
    failures, verify_s, accuracy = verify_closed(workload, state, record)
    busy = [sum(run.seconds for run in rec.runs) for rec in (plain, traced)]
    layers = {
        **workload.layer_extras(state, record),
        **accuracy,
        "loadgen.late_p95_ms": _p95_ms(plain.gaps),
        "trace.overhead_frac": busy[1] / busy[0] - 1.0,
        "trace.op_cover_frac": tracer.root_ns / 1e9 / wall,
        "oracle.verify_s": verify_s,
    }
    return SimpleNamespace(
        attempted=len(record.runs), failures=failures, values=layers,
        detail={"verify_s": verify_s, "digests": _digests(record),
                **accuracy},
    )


def _p95_ms(values) -> float:
    from workloads import percentile

    return percentile(values, 95) * 1e3


# -- the open loop -----------------------------------------------------------
class _Discard:
    """A lock-free sink for the server's per-request stderr line.

    A real stream's buffer lock can be held by a handler thread at the
    moment a job child forks; the child then blocks on it when it
    flushes at exit, and the worker waits out its 10 s join timeout.
    """

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def server_log():
    return contextlib.redirect_stderr(_Discard())


def run_service(workload, seconds):
    servers = []

    def setup(index):
        if servers:
            workload.teardown(servers.pop())
        servers.append(workload.setup(f"setup{index}"))
        return servers[-1]

    live, setups, adjusted = timed_setups(setup)
    try:
        phase = workload.drive(live, workload.schedule(seconds))
    finally:
        workload.teardown(live)
    values = {
        "setup_s": statistics.median(adjusted),
        **workload.e2e(phase),
        "peak_rss_mb": peak_rss_mb(),
    }
    start = time.perf_counter()
    failures = workload.verify([phase])
    verify_s = time.perf_counter() - start
    return SimpleNamespace(
        attempted=len(phase.records), failures=failures, values=values,
        detail={"setup_runs_s": setups, "verify_s": verify_s,
                "raw_op_ms": [[r.get("hit"), r.get("latency", 0) * 1e3]
                              for r in phase.records],
                "calibration_ms": phase.calibrations,
                "digests": _service_digests(phase),
                **workload.layers(phase)},
    )


def run_service_traced(workload, seconds, tracer):
    from service_mix import traced_executor
    from tracing import install

    requests = workload.schedule(seconds)
    live = workload.setup("plain")
    try:
        plain = workload.drive(live, requests)
    finally:
        workload.teardown(live)
    dumps = workload.workdir / "dumps"
    dumps.mkdir()
    uninstall = install(tracer)
    try:
        live = workload.setup("traced", traced_executor(tracer, dumps))
        try:
            traced = workload.drive(live, requests)
        finally:
            workload.teardown(live)
    finally:
        uninstall()
    jobs = sorted(dumps.glob("*.json"))
    for path in jobs:
        tracer.merge(json.loads(path.read_text()))
    start = time.perf_counter()
    failures = workload.verify([plain, traced])
    verify_s = time.perf_counter() - start
    executed = len(workload.hot) + sum("view" in r for r in traced.records)
    layers = {
        **workload.layers(plain),
        "trace.overhead_frac":
            workload.miss_run_s(traced) / workload.miss_run_s(plain) - 1.0,
        "trace.op_cover_frac": len(jobs) / executed,
        "oracle.verify_s": verify_s,
    }
    return SimpleNamespace(
        attempted=len(plain.records) + len(traced.records),
        failures=failures, values=layers,
        detail={"verify_s": verify_s, "digests": _service_digests(plain)},
    )


# -- one invocation ----------------------------------------------------------
def run_once(args):
    from service_mix import ServiceMix
    from tracing import Tracer, boundary_mismatches, layer_metrics
    from workloads import CLOSED

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        if args.workload in CLOSED:
            workload = CLOSED[args.workload](args.seed, args.quick)
            outcome = (run_closed_traced(workload, tracer) if tracer
                       else run_closed(workload, args.seconds))
        else:
            workload = ServiceMix(args.seed, args.quick, workdir)
            with server_log():
                outcome = (
                    run_service_traced(workload, args.seconds, tracer)
                    if tracer else run_service(workload, args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = {
        "workload": args.workload, "seed": args.seed,
        "inputs": workload.inputs,
        **outcome.detail,
    }
    if tracer is not None:
        outcome.failures += boundary_mismatches(tracer)
        outcome.values = {
            **dict.fromkeys(WORKLOAD_ONLY, 0),
            **layer_metrics(tracer),
            **outcome.values,
        }
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write_chrome_trace(
            traces / f"{args.workload}-seed{args.seed}.json")
        detail["counts"] = {
            name: value for name, value in outcome.values.items()
            if name.endswith((".calls", ".warps", ".runs", ".instructions",
                              ".cycles", ".launches"))
        }
    return outcome, detail


def _digests(record) -> dict:
    """Each op's distinct output digests, to compare runs of one seed."""
    return {key: sorted(set(d for d in digests if d))
            for key, digests in record.digests().items()}


def _service_digests(phase) -> dict:
    from workloads import digest

    return {
        f"{i}": digest(rec["result"]["stats"]) if "result" in rec else None
        for i, rec in enumerate(phase.records)
    }


def report(args, spec, outcome, detail) -> int:
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in declared}
    if set(outcome.values) != names:
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(names - set(outcome.values))}, undeclared "
            f"{sorted(set(outcome.values) - names)}")
    metrics = {
        m["name"]: {"value": outcome.values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    for name, metric in metrics.items():
        print(f"# {name:28s} {metric['value']:14.6g} {metric['unit']}")
    for failure in outcome.failures:
        print(f"# FAILED {failure}")
    print("# detail " + json.dumps(detail, sort_keys=True))
    failed = min(len(outcome.failures), outcome.attempted)
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not outcome.failures else 1


# -- --repeat ----------------------------------------------------------------
def repeat(args, spec) -> int:
    """Alternate workloads for N rounds; report spread against bounds."""
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    samples = {name: {m: [] for m in bounds} for name in names}
    ok = True
    for round_ in range(args.repeat):
        for name in names:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed + round_),
                "--seconds", str(args.seconds), "--trace", "0",
            ] + (["--quick"] if args.quick else [])
            proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode or not result.get("correct"):
                ok = False
                print(f"# {name} seed {args.seed + round_}: FAILED "
                      f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
            for metric, entry in result.get("metrics", {}).items():
                samples[name][metric].append(entry["value"])
            print(f"# {name} seed {args.seed + round_} done", flush=True)
    summary = {}
    print(f"# {'workload':12s} {'metric':12s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s} ok")
    for name in names:
        summary[name] = {}
        for metric, values in samples[name].items():
            if not values:
                continue
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else float("inf")
            within = metric == "setup_s" or spread <= bounds[metric]
            ok = ok and within
            summary[name][metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[metric], "within": within, "values": values,
            }
            print(f"# {name:12s} {metric:12s} {med:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {spread:7.3f} {bounds[metric]:6.2f} "
                  f"{'yes' if within else 'NO'}")
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}; run from "
              "a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(SPEC_PATH.read_text())
    args = parse_args(argv, spec)
    if args.repeat:
        return repeat(args, spec)
    outcome, detail = run_once(args)
    return report(args, spec, outcome, detail)


if __name__ == "__main__":
    sys.exit(main())
