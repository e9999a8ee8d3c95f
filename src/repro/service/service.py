"""The service facade: schemas -> cache -> queue, plus observability.

:class:`SimulationService` is the transport-independent core the HTTP
layer (and the tests) drive:

- ``submit`` validates the payload, consults the result cache
  (simulate / estimate / sweep — profile jobs exist for their per-job
  artifacts and never cache), coalesces duplicate in-flight requests
  onto the already-running job, and only then dispatches a worker.
- Completed jobs publish their payload back to the cache from the
  worker's completion hook, so the next identical request is a pure
  read.
- :class:`Metrics` aggregates the observability fields the
  ``/metrics`` endpoint reports: request counters, cache
  hit/miss/coalesce counts, jobs by terminal state, and per-stage
  latency aggregates (queue wait, trace load, sim, serialize).
"""

from __future__ import annotations

import threading

from repro.service.execute import EXECUTORS
from repro.service.jobs import JobQueue, JobState
from repro.service.result_cache import ResultCache, cache_key
from repro.service.schemas import SCHEMA_VERSION, parse_request

#: Request kinds whose results are content-addressable.
CACHEABLE = ("simulate", "estimate", "sweep")


class Metrics:
    """Thread-safe counters + latency aggregates for ``/metrics``."""

    _STAGES = ("queue_wait_s", "run_s", "trace_load_s", "sim_s",
               "serialize_s")

    def __init__(self):
        self._lock = threading.Lock()
        self.requests: dict[str, int] = {}
        self.cache = {"hits": 0, "misses": 0, "coalesced": 0, "stores": 0}
        self.jobs: dict[str, int] = {}
        self.stages: dict[str, dict] = {
            stage: {"count": 0, "total_s": 0.0, "max_s": 0.0}
            for stage in self._STAGES
        }

    def count_request(self, endpoint: str) -> None:
        with self._lock:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    def count_cache(self, outcome: str) -> None:
        with self._lock:
            self.cache[outcome] += 1

    def count_job(self, state: str, timings: dict) -> None:
        with self._lock:
            self.jobs[state] = self.jobs.get(state, 0) + 1
            for stage, value in timings.items():
                agg = self.stages.get(stage)
                if agg is None:
                    continue
                agg["count"] += 1
                agg["total_s"] += value
                agg["max_s"] = max(agg["max_s"], value)

    def to_dict(self) -> dict:
        with self._lock:
            stages = {
                stage: {
                    "count": agg["count"],
                    "total_s": round(agg["total_s"], 6),
                    "max_s": round(agg["max_s"], 6),
                    "mean_s": round(agg["total_s"] / agg["count"], 6)
                    if agg["count"]
                    else 0.0,
                }
                for stage, agg in self.stages.items()
            }
            return {
                "requests": dict(self.requests),
                "cache": dict(self.cache),
                "jobs": dict(self.jobs),
                "stage_latency": stages,
            }


class SimulationService:
    """Job submission with a content-addressed read-through cache."""

    def __init__(
        self,
        cache_root=None,
        workers: int | None = None,
        artifact_root=None,
        use_processes: bool = True,
        start: bool = True,
        cache_max_entries: int | None = None,
        cache_max_bytes: int | None = None,
    ):
        self.cache = (
            ResultCache(
                cache_root,
                max_entries=cache_max_entries,
                max_bytes=cache_max_bytes,
            )
            if cache_root
            else None
        )
        self.metrics = Metrics()
        self.queue = JobQueue(
            EXECUTORS,
            workers=workers,
            artifact_root=artifact_root,
            on_complete=self._on_complete,
            use_processes=use_processes,
            start=start,
        )
        self._inflight_lock = threading.Lock()
        self._inflight: dict[str, str] = {}  # cache key -> job id

    # -- API ----------------------------------------------------------------
    def submit(self, kind: str, payload: dict, request_id: str | None = None):
        """Validate and route one request; returns the job record.

        Raises :class:`~repro.service.schemas.SchemaError` on a
        malformed payload.  Cache hits return an already-``done`` job
        carrying the stored result — no worker is touched.  A request
        identical to one still in flight attaches to that job instead
        of queueing a duplicate.
        """
        self.metrics.count_request(kind)
        request = parse_request(kind, payload)
        if (
            self.cache is None
            or kind not in CACHEABLE
            or not getattr(request, "use_cache", False)
        ):
            return self.queue.submit(
                kind,
                request,
                priority=request.priority,
                timeout_s=request.timeout_s,
                request_id=request_id,
            )
        key = cache_key(kind, request.identity(), request.resolved_config())
        # One lock spans hit-check, in-flight check and enqueue, and
        # the completion hook publishes to the cache *before* clearing
        # the in-flight mark — together that makes identical concurrent
        # requests execute exactly once (the stress test's invariant).
        with self._inflight_lock:
            hit = self.cache.get(key)
            if hit is not None:
                self.metrics.count_cache("hits")
                job = self.queue.record_completed(
                    kind, hit, cached=True, request_id=request_id,
                    cache_key=key,
                )
                # Stage aggregates track real executions; a hit's
                # zeros would only dilute the means.
                self.metrics.count_job("cache_hit", {})
                return job
            self.metrics.count_cache("misses")
            running_id = self._inflight.get(key)
            if running_id is not None:
                job = self.queue.get(running_id)
                if job is not None and not job.finished:
                    self.metrics.count_cache("coalesced")
                    job.coalesced = True
                    return job
            job = self.queue.submit(
                kind,
                request,
                priority=request.priority,
                timeout_s=request.timeout_s,
                request_id=request_id,
                cache_key=key,
            )
            self._inflight[key] = job.id
        return job

    def job(self, job_id: str):
        return self.queue.get(job_id)

    def cancel(self, job_id: str) -> bool:
        return self.queue.cancel(job_id)

    def wait(self, job_id: str, timeout: float = 60.0):
        return self.queue.wait(job_id, timeout=timeout)

    def metrics_dict(self) -> dict:
        data = self.metrics.to_dict()
        data["schema_version"] = SCHEMA_VERSION
        data["queue"] = self.queue.depth()
        data["running"] = self.queue.running_progress()
        data["jobs_executed"] = self.queue.executed
        if self.cache is not None:
            data["result_cache"] = {
                "root": str(self.cache.root),
                "entries": len(self.cache),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "stores": self.cache.stores,
                "evictions": self.cache.evictions,
                "max_entries": self.cache.max_entries,
                "max_bytes": self.cache.max_bytes,
            }
        return data

    def shutdown(self) -> None:
        self.queue.shutdown()

    # -- hooks ---------------------------------------------------------------
    def _on_complete(self, job) -> None:
        """Worker-thread hook: publish the result, then clear in-flight.

        Publish-before-clear keeps the submit-path invariant: at every
        instant an identical request either sees the key in flight or
        finds its payload in the cache.
        """
        if job.cache_key is not None:
            if (
                job.state == JobState.DONE
                and job.result is not None
                and self.cache is not None
            ):
                self.cache.put(job.cache_key, job.result)
                self.metrics.count_cache("stores")
            with self._inflight_lock:
                if self._inflight.get(job.cache_key) == job.id:
                    del self._inflight[job.cache_key]
        self.metrics.count_job(job.state, job.timings)
