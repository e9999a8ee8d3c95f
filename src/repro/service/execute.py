"""Job executors: the bridge from request schemas to the simulator.

Each executor runs inside a forked worker child (see
:mod:`repro.service.jobs`) and returns ``(result_payload,
stage_timings)``.  Payloads are plain JSON-safe dicts — stats travel
as :meth:`repro.sim.stats.RunStats.to_dict` payloads, which the result
cache persists verbatim and :func:`repro.sim.stats.stats_from_dict`
rebuilds bit-identically.  Stage timings split the work the way the
``/metrics`` endpoint reports it: ``trace_load_s`` (building the
application and materializing its traces), ``sim_s`` (the simulation
proper) and ``serialize_s`` (stats -> wire payload).

Every executor loads applications the same way, through a
:class:`~repro.core.sweep.TraceCache` over the trace store named by
``REPRO_TRACE_STORE`` (none when unset), so a warm store serves
single runs as well as sweeps.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.runner import variant_name
from repro.core.sweep import TraceCache, sweep_point
from repro.data.datasets import DatasetSize
from repro.sim.gpu import GPUSimulator
from repro.sim.replay import replay_application
from repro.sim.trace_store import TraceStore

#: Executors rewrite ``progress.json`` at most this often (the file is
#: re-read on every job-status poll, so finer granularity buys nothing).
PROGRESS_MIN_INTERVAL_S = 0.1


def _stamp(timings: dict, stage: str, since: float) -> float:
    now = time.monotonic()
    timings[stage] = now - since
    return now


def write_progress(artifact_dir, payload: dict) -> None:
    """Atomically publish ``progress.json`` into the job's artifact dir.

    Runs inside the forked executor child; the parent's
    :meth:`~repro.service.jobs.Job.view` reads it back while the job is
    running, which is how percent-complete reaches the job-status
    response and ``/metrics`` without any extra IPC channel.
    """
    if artifact_dir is None:
        return
    path = Path(artifact_dir) / "progress.json"
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
    except OSError:
        pass  # progress is best-effort; never fail the job over it


def _telemetry_progress(artifact_dir):
    """A ``Telemetry.progress`` hook publishing interval-counter progress.

    Single runs have no known total (cycles-to-completion is the thing
    being simulated), so ``percent`` stays ``None`` — the payload
    reports honest monotone counters instead.
    """
    state = {"last": 0.0}

    def hook(index: int, interval: int) -> None:
        now = time.monotonic()
        if now - state["last"] < PROGRESS_MIN_INTERVAL_S:
            return
        state["last"] = now
        write_progress(artifact_dir, {
            "unit": "cycles",
            "done": (index + 1) * interval,
            "intervals": index + 1,
            "total": None,
            "percent": None,
        })

    return hook


def _attach_progress(sim: GPUSimulator, artifact_dir) -> None:
    if artifact_dir is not None and sim.telemetry is not None:
        sim.telemetry.progress = _telemetry_progress(artifact_dir)


def _load(request, config, timings: dict):
    """The request's application, timed as ``trace_load_s`` (a cold
    build, or a decode when the store holds it).  Returns the
    application and the end stamp."""
    t = time.monotonic()
    app = TraceCache(store=TraceStore.from_env()).get(sweep_point(
        variant_name(request.benchmark, request.cdp),
        request.benchmark,
        config,
        cdp=request.cdp,
        size=DatasetSize(request.size),
    ))
    return app, _stamp(timings, "trace_load_s", t)


def _run_exact(request, artifact_dir, timings: dict):
    """The exact-run path of ``repro run``, split into service stages.

    ``trace_load_s`` covers loading the application (:func:`_load`),
    ``sim_s`` the replay.  Returns the stats and the ``sim_s`` end
    stamp.
    """
    config = request.resolved_config()
    app, t = _load(request, config, timings)
    sim = GPUSimulator(config)
    _attach_progress(sim, artifact_dir)
    stats = replay_application(app, sim)
    return stats, _stamp(timings, "sim_s", t)


def execute_simulate(request, artifact_dir: str | None):
    """Exact cycle-accurate run of one benchmark variant."""
    timings: dict = {}
    stats, t = _run_exact(request, artifact_dir, timings)
    payload = {
        "kind": request.KIND,
        "label": variant_name(request.benchmark, request.cdp),
        "stats": stats.to_dict(),
    }
    _stamp(timings, "serialize_s", t)
    return payload, timings


def execute_estimate(request, artifact_dir: str | None):
    """Warp-sampled estimation (stats carry confidence intervals)."""
    from repro.sim.sampled import estimate_application

    config = request.resolved_config()
    timings: dict = {}
    cached, t = _load(request, config, timings)
    stats = estimate_application(cached, config)
    t = _stamp(timings, "sim_s", t)
    payload = {
        "kind": request.KIND,
        "label": variant_name(request.benchmark, request.cdp),
        "stats": stats.to_dict(),
    }
    _stamp(timings, "serialize_s", t)
    return payload, timings


def execute_sweep(request, artifact_dir: str | None):
    """The suite (or a subset) at the request's config.

    With ``request.points`` set (a coordinator chunk), the wire-encoded
    points are decoded and run verbatim — each carries its own full
    config — instead of building the suite grid.

    Runs in-process (``jobs=0`` semantics): the job queue already
    bounds process-level concurrency to the shared core budget, so
    nesting a pool inside a worker child would oversubscribe the host.
    The in-process path still gets full trace reuse through its
    :class:`~repro.core.sweep.TraceCache` (and the persistent store
    when ``REPRO_TRACE_STORE`` is set).  Per-point completion counts
    are published as job progress — exact percent, which is also what
    the distributed coordinator's straggler detection reads.
    """
    from repro.core.sweep import (
        decode_point,
        resume_merge,
        run_point,
        suite_points,
    )

    config = request.resolved_config()
    timings: dict = {}
    t = time.monotonic()
    if request.points:
        points = [decode_point(entry) for entry in request.points]
    else:
        points = suite_points(
            benchmarks=list(request.benchmarks) or None,
            cdp_variants=request.cdp_variants,
            size=DatasetSize(request.size),
            config=config,
        )
    cache = TraceCache(store=TraceStore.from_env())
    total = len(points)

    def run(todo):
        write_progress(artifact_dir, {
            "unit": "points", "done": 0, "total": total, "percent": 0.0,
        })
        for done, point in enumerate(todo, start=1):
            yield run_point(point, cache)
            write_progress(artifact_dir, {
                "unit": "points",
                "done": done,
                "total": total,
                "percent": round(100.0 * done / total, 2),
            })

    results = resume_merge(points, None, run)
    t = _stamp(timings, "sim_s", t)
    payload = {
        "kind": request.KIND,
        "results": {
            label: stats.to_dict() for label, stats in results.items()
        },
    }
    _stamp(timings, "serialize_s", t)
    return payload, timings


def execute_profile(request, artifact_dir: str | None):
    """Telemetry run; exports become downloadable per-job artifacts."""
    from repro.sim.telemetry import write_chrome_trace, write_jsonl

    timings: dict = {}
    stats, t = _run_exact(request, artifact_dir, timings)
    artifacts = []
    out = Path(artifact_dir) if artifact_dir else None
    if out is not None and stats.telemetry is not None:
        if "jsonl" in request.artifacts:
            write_jsonl(stats.telemetry, out / "telemetry.jsonl")
            artifacts.append("telemetry.jsonl")
        if "chrome_trace" in request.artifacts:
            write_chrome_trace(stats.telemetry, out / "trace.json")
            artifacts.append("trace.json")
    payload = {
        "kind": request.KIND,
        "label": variant_name(request.benchmark, request.cdp),
        "stats": stats.to_dict(),
        "artifacts": artifacts,
    }
    _stamp(timings, "serialize_s", t)
    return payload, timings


#: kind -> executor, the registry a :class:`repro.service.jobs.JobQueue`
#: is built from.
EXECUTORS = {
    "simulate": execute_simulate,
    "estimate": execute_estimate,
    "sweep": execute_sweep,
    "profile": execute_profile,
}
