"""The open-loop workload: ``service-mix``.

Requests arrive on a fixed schedule (``RATE`` per second) at an
in-process ``make_server(workers=2)``, whether or not earlier ones are
done.  Three of every four repeat one of ``HOT`` requests primed during
set-up, so they are answered from the result cache inline; the fourth
is a distinct cold ``small`` request (a seeded ``num_sms`` override
keeps its cache key unique), which forks a job child that builds and
simulates the application live and publishes the result.

One sender thread issues the schedule and one poller thread follows
the cold jobs.  A request's latency runs from when it was due: to the
inline reply for a hit, to the job's ``finished_at`` for a miss.
"""

from __future__ import annotations

import json
import os
import queue
import random
import threading
import time
import traceback
from types import SimpleNamespace

from repro.core.runner import run_benchmark
from repro.kernels import benchmark_names
from repro.service.client import FINAL_STATES, ServiceClient
from repro.service.server import make_server
from repro.sim.config import GPUConfig
from repro.sim.configfile import apply_overrides

from workloads import (
    SMALL,
    calibration_ms,
    derive_seed,
    digest,
    host_scale,
    input_digest,
    percentile,
    variants,
)

#: With ``run_seconds`` 10 this sends 80 requests, so the 20 cold ones
#: are exactly one seeded permutation of the suite's variants.
RATE = 8.0
HOT = 10
#: ``--quick``: about 20 requests in one second over a smaller hot set.
QUICK_RATE = 20.0
QUICK_HOT = 4
COLD_EVERY = 4
WORKERS = 2
#: The poll interval of ``ServiceClient.wait``.
POLL_S = 0.05
#: How long cold jobs may keep running after the last request is sent.
DRAIN_S = 60.0
#: Cold requests draw ``num_sms`` below the baseline's 78, so no cold
#: key can equal a hot (baseline-config) one.
COLD_SMS = range(16, 78)

_STAGES = ("queue_wait_s", "run_s", "trace_load_s", "sim_s", "serialize_s")


def request_key(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


class ServiceMix:
    name = "service-mix"

    def __init__(self, seed: int, quick: bool, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rate = QUICK_RATE if quick else RATE
        # The hot set is the same for every seed (each benchmark at the
        # baseline config), so set-up primes the same work every run.
        self.hot = [
            {"benchmark": abbr, "cdp": False, "size": SMALL.value,
             "config": {}}
            for abbr in benchmark_names()[:QUICK_HOT if quick else HOT]
        ]

    def schedule(self, seconds: float) -> list[dict]:
        """The seeded request list: every fourth request is cold.

        Cold requests walk seeded permutations of all 20 variants, so
        every run's cold mix has the same benchmarks in another order,
        arriving evenly spaced; the hot requests between them are
        seeded draws from the hot set.
        """
        total = max(COLD_EVERY, round(self.rate * seconds))
        rng = random.Random(derive_seed(self.seed, "schedule"))
        requests, permutation, used = [], [], set()
        for index in range(total):
            if index % COLD_EVERY:
                requests.append(rng.choice(self.hot))
                continue
            if not permutation:
                permutation = rng.sample(variants(), len(variants()))
            abbr, cdp = permutation.pop()
            sms = rng.choice(COLD_SMS)
            while (abbr, cdp, sms) in used:
                sms = rng.choice(COLD_SMS)
            used.add((abbr, cdp, sms))
            requests.append({
                "benchmark": abbr, "cdp": cdp, "size": SMALL.value,
                "config": {"num_sms": sms},
            })
        self.inputs = input_digest(requests)
        return requests

    # -- set-up / teardown ---------------------------------------------------
    def setup(self, tag: str, wrap_executor=None):
        """Start a server with an empty cache and prime the hot set."""
        root = self.workdir / tag
        server = make_server(
            "127.0.0.1", 0, workers=WORKERS,
            cache_root=root / "cache", artifact_root=root / "artifacts",
        )
        if wrap_executor is not None:
            jobs = server.service.queue
            jobs.executors = {
                kind: wrap_executor(executor)
                for kind, executor in jobs.executors.items()
            }
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        live = SimpleNamespace(
            server=server, thread=thread,
            client=ServiceClient(*server.server_address[:2], timeout=DRAIN_S),
        )
        views = [live.client.submit("simulate", **p) for p in self.hot]
        for view in views:
            if view.get("result") is None:
                final = live.client.wait(view["id"], timeout=DRAIN_S)
                if final["state"] != "done":
                    raise RuntimeError(f"priming job failed: {final}")
        return live

    @staticmethod
    def teardown(live) -> None:
        live.server.shutdown()
        live.server.server_close()
        live.thread.join(timeout=10)

    # -- the timed phase -----------------------------------------------------
    def drive(self, live, requests: list[dict]) -> SimpleNamespace:
        """Send ``requests`` on schedule; returns one record per request."""
        client = live.client
        records = [{"due": i / self.rate} for i in range(len(requests))]
        calibrations = []
        pending: queue.Queue = queue.Queue()
        metrics_before = client.metrics()
        t0 = time.perf_counter()
        wall0 = time.time()

        def sender():
            for i, payload in enumerate(requests):
                rec = records[i]
                delay = t0 + rec["due"] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                rec["late"] = sent - t0 - rec["due"]
                try:
                    view = client.submit("simulate", **payload)
                except Exception:
                    rec["error"] = traceback.format_exc()
                    continue
                if view.get("result") is not None:
                    rec["hit"] = True
                    rec["latency"] = time.perf_counter() - t0 - rec["due"]
                    rec["result"] = view["result"]
                else:
                    rec["hit"] = False
                    rec["job"] = view["id"]
                    pending.put(i)
                # Idle until the next request is due: measure the host.
                calibrations.append(
                    (time.perf_counter() - t0, calibration_ms()))
            pending.put(None)

        def poller():
            waiting, sending = [], True
            deadline = None
            while sending or waiting:
                while True:
                    try:
                        item = pending.get_nowait()
                    except queue.Empty:
                        break
                    if item is None:
                        sending = False
                        deadline = time.perf_counter() + DRAIN_S
                    else:
                        waiting.append(item)
                for i in list(waiting):
                    rec = records[i]
                    try:
                        view = client.job(rec["job"])
                        if view["state"] not in FINAL_STATES:
                            continue
                        rec["view"] = view
                        if view["state"] == "done":
                            rec["result"] = client.result(rec["job"])["result"]
                        rec["latency"] = (
                            view["finished_at"] - wall0 - rec["due"])
                    except Exception:
                        rec["error"] = traceback.format_exc()
                    waiting.remove(i)
                if deadline is not None and time.perf_counter() > deadline:
                    for i in waiting:
                        records[i]["error"] = "job did not finish in time"
                    return
                time.sleep(POLL_S)

        threads = [threading.Thread(target=sender),
                   threading.Thread(target=poller)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        metrics_after = client.metrics()
        return SimpleNamespace(
            records=records,
            requests=requests,
            metrics=(metrics_before, metrics_after),
            calibrations=calibrations,
        )

    # -- results -------------------------------------------------------------
    @staticmethod
    def request_scale(phase, rec) -> float:
        """Reference-host factor for one request: the sender's
        calibrations during its lifetime, or the one right after it."""
        start, end = rec["due"], rec["due"] + rec["latency"]
        inside = [ms for at, ms in phase.calibrations if start <= at <= end]
        if not inside:
            nearest = min(phase.calibrations, key=lambda c: abs(c[0] - end))
            inside = [nearest[1]]
        return host_scale(*inside)

    def e2e(self, phase) -> dict:
        """Latency percentiles over all requests and the cold jobs'
        simulation rate, each request scaled by the host's speed while
        it was in flight."""
        done = [r for r in phase.records if "result" in r and "latency" in r]
        scales = [self.request_scale(phase, r) for r in done]
        latencies = [r["latency"] * s for r, s in zip(done, scales)]
        misses = [(r, s) for r, s in zip(done, scales) if not r["hit"]]
        instructions = sum(r["result"]["stats"]["instructions"]
                           for r, _ in misses)
        run_ms = sum(r["view"]["timings"]["run_s"] * s
                     for r, s in misses) * 1e3
        return {
            "op_p50_ms": percentile(latencies, 50) * 1e3,
            "op_p80_ms": percentile(latencies, 80) * 1e3,
            "sim_kips": instructions / run_ms if run_ms else 0.0,
        }

    @staticmethod
    def miss_run_s(phase) -> float:
        return sum(r["view"]["timings"]["run_s"]
                   for r in phase.records if "view" in r)

    @staticmethod
    def layers(phase) -> dict:
        """``service.*`` shares from the ``/metrics`` deltas of the phase."""
        before, after = (m["stage_latency"] for m in phase.metrics)
        spent = {s: after[s]["total_s"] - before[s]["total_s"]
                 for s in _STAGES}
        held = spent["queue_wait_s"] + spent["run_s"]
        records = phase.records
        results = [r["result"] for r in records if "result" in r]
        return {
            "service.hit_frac":
                sum(bool(r.get("hit")) for r in records) / len(records),
            "service.jobs_executed": (
                phase.metrics[1]["jobs_executed"]
                - phase.metrics[0]["jobs_executed"]),
            "service.queue_wait_frac": spent["queue_wait_s"] / held,
            "service.trace_load_frac": spent["trace_load_s"] / held,
            "service.sim_frac": spent["sim_s"] / held,
            "service.serialize_frac": spent["serialize_s"] / held,
            "stats.payload_kb": sum(
                len(json.dumps(r)) for r in results
            ) / 1024.0 / max(len(results), 1),
            "loadgen.late_p95_ms": percentile(
                [r["late"] for r in records if "late" in r], 95) * 1e3,
        }

    def verify(self, phases) -> list[str]:
        """Oracle: every answer equals a local ``run_benchmark``."""
        failures, expected = [], {}
        for phase in phases:
            for i, (payload, rec) in enumerate(
                    zip(phase.requests, phase.records)):
                if "result" not in rec:
                    failures.append(
                        f"request {i} {payload}: "
                        f"{rec.get('error') or rec.get('view')}")
                    continue
                key = request_key(payload)
                if key not in expected:
                    stats = run_benchmark(
                        payload["benchmark"], cdp=payload["cdp"], size=SMALL,
                        config=apply_overrides(GPUConfig(), payload["config"]),
                    )
                    expected[key] = digest(stats.to_dict())
                got = digest(rec["result"]["stats"])
                if got != expected[key]:
                    failures.append(
                        f"request {i} {payload}: digest {got} != oracle "
                        f"{expected[key]}")
        return failures


def traced_executor(tracer, dump_dir):
    """Wrap a job executor so the forked child records its layers.

    The child inherits the installed boundary wrappers; it starts its
    record from zero, runs the job under one root span and leaves the
    record in ``dump_dir`` for the parent to merge.
    """

    def wrap(executor):
        def run(request, artifact_dir):
            tracer.reset()
            with tracer.root("job", op=getattr(request, "benchmark", None)):
                result = executor(request, artifact_dir)
            path = dump_dir / f"job-{os.getpid()}-{time.monotonic_ns()}.json"
            path.write_text(json.dumps(tracer.snapshot()))
            return result

        return run

    return wrap
