"""Async job queue: priorities, cancellation, timeouts, bounded workers.

Jobs are executed by a fixed pool of worker *threads* whose size
defaults to the repo-wide core budget
(:func:`repro.core.sweep.default_jobs`), so one server never
oversubscribes the host even when sweeps and single runs mix.  Every
simulation is one sequential process, so each running job holds
exactly one slot.  Each worker runs its job's executor in a forked
child *process* (when the platform offers ``fork``): a blocking
simulation can then be genuinely killed — cancellation of a running
job and per-job timeouts both ``terminate()`` the child rather than
waiting politely for code that never checks a flag.  Hosts without ``fork`` degrade to inline
execution (documented: running jobs become uncancellable there;
queued jobs still cancel).

State machine::

    queued -> running -> done | failed | timeout | cancelled
    queued -> cancelled                  (never dispatched)

Every transition stamps wall-clock times and per-stage latencies
(``queue_wait_s``, ``run_s``, plus executor-reported sub-stages like
``trace_load_s`` / ``sim_s`` / ``serialize_s``) — the observability
fields ``/metrics`` aggregates.
"""

from __future__ import annotations

import heapq
import itertools
import json
import multiprocessing
import shutil
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.sweep import default_jobs
from repro.service.schemas import SCHEMA_VERSION, JobView

#: How often a worker re-checks cancellation/timeout while its child runs.
_POLL_S = 0.02

#: Terminal job states.
_FINAL = ("done", "failed", "cancelled", "timeout")


class JobState:
    """String constants for job states (JSON-friendly on the wire)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"


@dataclass
class Job:
    """One submitted unit of work and its lifecycle record."""

    id: str
    kind: str
    request: object
    priority: int = 0
    timeout_s: float | None = None
    state: str = JobState.QUEUED
    cached: bool = False
    coalesced: bool = False
    request_id: str | None = None
    cache_key: str | None = None
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    result: dict | None = None
    artifacts: tuple = ()
    artifact_dir: Path | None = None
    timings: dict = field(default_factory=dict)
    _cancel: bool = field(default=False, repr=False)
    _mono_submitted: float = field(default=0.0, repr=False)

    @property
    def finished(self) -> bool:
        return self.state in _FINAL

    def progress(self) -> dict | None:
        """The executor child's latest ``progress.json``, if any.

        Only meaningful while running (a finished job's percent is its
        terminal state); reading the file fresh per status poll keeps
        the parent free of any progress IPC.
        """
        if self.state != JobState.RUNNING or self.artifact_dir is None:
            return None
        try:
            raw = (self.artifact_dir / "progress.json").read_text()
            payload = json.loads(raw)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def view(self) -> JobView:
        return JobView(
            id=self.id,
            kind=self.kind,
            state=self.state,
            priority=self.priority,
            cached=self.cached,
            coalesced=self.coalesced,
            request_id=self.request_id,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            timings=dict(self.timings),
            error=self.error,
            artifacts=tuple(self.artifacts),
            progress=self.progress(),
            schema_version=SCHEMA_VERSION,
        )


def _child_entry(executor, request, artifact_dir, conn) -> None:
    """Forked child: run the executor, ship (status, payload, stages)."""
    try:
        result, stages = executor(request, artifact_dir)
        conn.send(("ok", result, stages))
    except BaseException as exc:  # noqa: BLE001 - report, don't crash silent
        conn.send(("error", f"{type(exc).__name__}: {exc}", {}))
    finally:
        conn.close()


class JobQueue:
    """Priority queue + bounded worker pool with kill-based control.

    ``executors`` maps job kinds to ``fn(request, artifact_dir) ->
    (result_dict, stage_timings)`` callables; see
    :mod:`repro.service.execute` for the simulation executors.
    ``on_complete`` (when given) runs in the worker thread after every
    terminal transition — the service layer uses it to publish results
    into the cache.

    ``start=False`` builds the queue paused: jobs accumulate (useful
    for deterministic priority tests) until :meth:`start` spawns the
    workers.  ``use_processes=False`` forces inline execution.
    """

    def __init__(
        self,
        executors: dict,
        workers: int | None = None,
        artifact_root: str | Path | None = None,
        on_complete=None,
        start: bool = True,
        use_processes: bool = True,
    ):
        self.executors = dict(executors)
        self.workers = workers if workers is not None else default_jobs()
        if self.workers < 1:
            raise ValueError("need at least one worker")
        self.on_complete = on_complete
        self._owns_artifact_root = artifact_root is None
        self.artifact_root = Path(
            artifact_root
            if artifact_root is not None
            else tempfile.mkdtemp(prefix="repro-service-")
        )
        self._ctx = None
        if use_processes and "fork" in multiprocessing.get_all_start_methods():
            self._ctx = multiprocessing.get_context("fork")
        self.jobs: dict[str, Job] = {}
        self._heap: list = []
        self._seq = itertools.count()
        self._cond = threading.Condition()
        self._threads: list[threading.Thread] = []
        self._stop = False
        self.executed = 0  # jobs a worker actually ran (cache bypasses)
        if start:
            self.start()

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        with self._cond:
            missing = self.workers - len(self._threads)
        for _ in range(max(0, missing)):
            thread = threading.Thread(
                target=self._worker, name="repro-service-worker", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def shutdown(self, cancel_pending: bool = True) -> None:
        """Stop the workers; optionally cancel everything still queued."""
        with self._cond:
            self._stop = True
            if cancel_pending:
                for job in self.jobs.values():
                    if job.state == JobState.QUEUED:
                        self._finish(job, JobState.CANCELLED,
                                     error="server shutting down")
                    elif job.state == JobState.RUNNING:
                        job._cancel = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=10)
        if self._owns_artifact_root:
            shutil.rmtree(self.artifact_root, ignore_errors=True)

    # -- submission / inspection -------------------------------------------
    def submit(
        self,
        kind: str,
        request,
        priority: int = 0,
        timeout_s: float | None = None,
        request_id: str | None = None,
        cache_key: str | None = None,
    ) -> Job:
        """Enqueue a job; higher ``priority`` dispatches first."""
        if kind not in self.executors:
            raise KeyError(f"no executor registered for kind {kind!r}")
        job = Job(
            id=uuid.uuid4().hex[:12],
            kind=kind,
            request=request,
            priority=priority,
            timeout_s=timeout_s,
            request_id=request_id,
            cache_key=cache_key,
            submitted_at=time.time(),
        )
        job._mono_submitted = time.monotonic()
        with self._cond:
            if self._stop:
                raise RuntimeError("job queue is shut down")
            self.jobs[job.id] = job
            heapq.heappush(
                self._heap, (-priority, next(self._seq), job.id)
            )
            self._cond.notify()
        return job

    def record_completed(
        self,
        kind: str,
        result: dict,
        cached: bool = False,
        request_id: str | None = None,
        cache_key: str | None = None,
    ) -> Job:
        """Register an already-answered job (cache hit): no dispatch.

        The job materializes directly in the ``done`` state so the
        lifecycle API (status, result download) works uniformly for
        cached and computed answers.
        """
        now = time.time()
        job = Job(
            id=uuid.uuid4().hex[:12],
            kind=kind,
            request=None,
            state=JobState.DONE,
            cached=cached,
            request_id=request_id,
            cache_key=cache_key,
            submitted_at=now,
            started_at=now,
            finished_at=now,
            result=result,
            timings={"queue_wait_s": 0.0, "run_s": 0.0},
        )
        with self._cond:
            self.jobs[job.id] = job
        return job

    def get(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job: queued jobs die instantly, running jobs are
        killed at the next poll tick.  False if unknown or finished."""
        with self._cond:
            job = self.jobs.get(job_id)
            if job is None or job.finished:
                return False
            if job.state == JobState.QUEUED:
                self._finish(job, JobState.CANCELLED,
                             error="cancelled while queued")
                return True
            job._cancel = True
            return True

    def wait(self, job_id: str, timeout: float = 60.0) -> Job:
        """Block until ``job_id`` reaches a terminal state."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                job = self.jobs.get(job_id)
                if job is None:
                    raise KeyError(f"unknown job {job_id!r}")
                if job.finished:
                    return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(f"job {job_id} still {job.state}")
                self._cond.wait(remaining)

    def depth(self) -> dict:
        """Live gauges for ``/metrics``."""
        with self._cond:
            states: dict[str, int] = {}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "queued": states.get(JobState.QUEUED, 0),
                "running": states.get(JobState.RUNNING, 0),
                "states": states,
                "workers": self.workers,
            }

    def running_progress(self) -> list:
        """Per-running-job progress snapshots for ``/metrics``."""
        with self._cond:
            running = [
                job for job in self.jobs.values()
                if job.state == JobState.RUNNING
            ]
        # progress() reads each job's progress.json — do the file IO
        # outside the queue lock.
        return [
            {"id": job.id, "kind": job.kind, "progress": job.progress()}
            for job in running
        ]

    # -- execution ----------------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._heap and not self._stop:
                    self._cond.wait()
                if self._stop:
                    return
                _, _, job_id = heapq.heappop(self._heap)
                job = self.jobs[job_id]
                if job.state != JobState.QUEUED:
                    continue  # cancelled while queued
                job.state = JobState.RUNNING
                job.started_at = time.time()
                job.timings["queue_wait_s"] = (
                    time.monotonic() - job._mono_submitted
                )
            try:
                self._run(job)
            except Exception as exc:  # pragma: no cover - worker never dies
                with self._cond:
                    if not job.finished:
                        self._finish(job, JobState.FAILED,
                                     error=f"{type(exc).__name__}: {exc}")
            callback = self.on_complete
            if callback is not None:
                try:
                    callback(job)
                except Exception:  # pragma: no cover - observer must not kill
                    pass

    def _run(self, job: Job) -> None:
        executor = self.executors[job.kind]
        artifact_dir = self.artifact_root / job.id
        artifact_dir.mkdir(parents=True, exist_ok=True)
        job.artifact_dir = artifact_dir
        started = time.monotonic()
        if self._ctx is None:
            self._run_inline(job, executor, artifact_dir, started)
        else:
            self._run_forked(job, executor, artifact_dir, started)

    def _run_inline(self, job, executor, artifact_dir, started) -> None:
        """No-fork fallback: run in the worker thread (unkillable)."""
        try:
            result, stages = executor(job.request, str(artifact_dir))
        except Exception as exc:
            self._settle(job, JobState.FAILED, started,
                         error=f"{type(exc).__name__}: {exc}")
            return
        if job._cancel:
            self._settle(job, JobState.CANCELLED, started,
                         error="cancelled while running")
            return
        self._settle(job, JobState.DONE, started, result=result,
                     stages=stages)

    def _run_forked(self, job, executor, artifact_dir, started) -> None:
        recv, send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_child_entry,
            args=(executor, job.request, str(artifact_dir), send),
            daemon=True,
        )
        proc.start()
        send.close()
        deadline = (
            started + job.timeout_s if job.timeout_s is not None else None
        )
        message = None
        outcome = None
        while True:
            if job._cancel:
                outcome = JobState.CANCELLED
                break
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                outcome = JobState.TIMEOUT
                break
            if recv.poll(_POLL_S):
                try:
                    message = recv.recv()
                except EOFError:
                    message = ("error", "worker process died mid-result", {})
                break
            if not proc.is_alive() and not recv.poll(0):
                message = (
                    "error",
                    f"worker process exited (code {proc.exitcode}) "
                    "without a result",
                    {},
                )
                break
        if outcome is not None:
            proc.terminate()
            proc.join(timeout=10)
            recv.close()
            error = (
                "cancelled while running"
                if outcome == JobState.CANCELLED
                else f"killed after exceeding timeout_s={job.timeout_s}"
            )
            self._settle(job, outcome, started, error=error)
            return
        proc.join(timeout=10)
        recv.close()
        status, payload, stages = message
        if status == "ok":
            self._settle(job, JobState.DONE, started, result=payload,
                         stages=stages)
        else:
            self._settle(job, JobState.FAILED, started, error=payload)

    def _settle(self, job, state, started, result=None, error=None,
                stages=None) -> None:
        with self._cond:
            if job.finished:  # cancelled concurrently; first writer wins
                return
            job.timings["run_s"] = time.monotonic() - started
            if stages:
                job.timings.update(stages)
            if result is not None:
                job.result = result
                job.artifacts = tuple(result.get("artifacts", ()))
                self.executed += 1
            self._finish(job, state, error=error)

    def _finish(self, job: Job, state: str, error: str | None = None) -> None:
        """Terminal transition; caller holds ``self._cond``."""
        job.state = state
        job.error = error
        job.finished_at = time.time()
        self._cond.notify_all()
