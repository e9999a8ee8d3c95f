"""Worker pools the sweep coordinator dispatches chunks to.

A launcher owns ``workers`` slots and exposes one blocking primitive::

    run_chunk(worker_id, chunk_id, points, timeout) -> [RunStats, ...]

raising :class:`WorkerDied` (the worker is gone — respawned lazily on
the next call), :class:`ChunkTimeout` (deadline passed; the worker is
killed so a wedged simulation cannot poison later chunks), or
:class:`ChunkFailed` (the worker is healthy but the chunk's simulation
raised).  The coordinator treats all three identically — re-queue and
retry elsewhere — so launchers stay dumb pipes and every robustness
decision lives in one place.

Two implementations:

- :class:`LocalProcessLauncher` — one persistent
  :class:`~repro.core.forked.ForkedChild` per slot running
  :func:`repro.dist.worker.serve`; points go out and ``RunStats`` come
  back as pickled objects over the child's pipe.
- :class:`ServiceLauncher` — one remote ``repro serve`` instance per
  slot, driven through :class:`repro.service.client.ServiceClient`
  using the sweep endpoint's explicit-points mode; points travel in
  the HTTP point codec (:func:`repro.core.sweep.encode_point`).
"""

from __future__ import annotations

import os
import time

from repro.core.forked import ChildDied, ChildTimeout, ForkedChild
from repro.core.sweep import SweepPoint, encode_point, point_key
from repro.dist.worker import serve
from repro.sim.stats import stats_from_dict


class WorkerDied(RuntimeError):
    """A worker disappeared (EOF, broken pipe, dead connection)."""


class ChunkTimeout(RuntimeError):
    """A chunk blew its deadline; the worker running it was killed."""


class ChunkFailed(RuntimeError):
    """The worker is fine but the chunk's simulation raised."""


def _child_main(conn, env: dict) -> None:
    """Forked worker body: set the env, then serve."""
    for name, value in env.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    try:
        serve(conn)
    except (BrokenPipeError, KeyboardInterrupt):
        pass


class LocalProcessLauncher:
    """A pool of persistent forked local workers.

    Workers fork lazily and are respawned transparently after a death
    or a timeout kill; each keeps a warm in-process
    :class:`~repro.core.sweep.TraceCache` (plus the shared on-disk
    store when ``store`` is set — and only then: a worker never picks
    up ``REPRO_TRACE_STORE`` on its own) across all the chunks it runs.

    ``extra_env`` sets environment variables in every worker;
    ``worker_env`` maps worker ids to extra variables for that worker
    only — the failure-injection hook the tests use to make exactly one
    worker die deterministically mid-sweep.
    """

    def __init__(
        self,
        workers: int = 2,
        store=None,
        extra_env: dict | None = None,
        worker_env: dict[int, dict] | None = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.store = store
        self.extra_env = dict(extra_env or {})
        self.worker_env = {k: dict(v) for k, v in (worker_env or {}).items()}
        self._live: dict[int, ForkedChild] = {}
        self.spawns = 0

    # -- lifecycle -----------------------------------------------------------
    def _ensure(self, worker_id: int) -> ForkedChild:
        child = self._live.get(worker_id)
        if child is not None and child.proc.is_alive():
            return child
        if child is not None:
            self._drop(worker_id)
        env = {"REPRO_TRACE_STORE": None if self.store is None
               else str(self.store)}
        for extra in (self.extra_env, self.worker_env.get(worker_id, {})):
            env.update({k: str(v) for k, v in extra.items()})
        try:
            child = ForkedChild(_child_main, env)
        except OSError as exc:
            raise WorkerDied(
                f"worker {worker_id} could not fork: {exc}"
            ) from exc
        self.spawns += 1
        self._live[worker_id] = child
        return child

    def _drop(self, worker_id: int) -> None:
        child = self._live.pop(worker_id, None)
        if child is not None:
            child.kill()

    def pids(self) -> dict[int, int]:
        """Live worker pids (the SIGKILL tests aim at these)."""
        return {
            worker_id: child.proc.pid
            for worker_id, child in list(self._live.items())
            if child.proc.is_alive()
        }

    def close(self) -> None:
        """Stop every worker: EOF on its pipe, a kill if it lingers."""
        while self._live:
            _, child = self._live.popitem()
            child.close()

    def __enter__(self) -> "LocalProcessLauncher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the coordinator-facing primitive ------------------------------------
    def run_chunk(
        self,
        worker_id: int,
        chunk_id: int,
        points: list[SweepPoint],
        timeout: float | None = None,
    ) -> list:
        """Run one chunk on one worker; blocking.  See module docstring
        for the failure contract."""
        child = self._ensure(worker_id)
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            child.send(points)
            reply = child.recv(deadline=deadline)
        except ChildTimeout:
            # The worker was wedged on this chunk and is now killed, so
            # the slot comes back clean for the retry.
            self._live.pop(worker_id, None)
            raise ChunkTimeout(
                f"chunk {chunk_id} exceeded {timeout}s on worker "
                f"{worker_id}; worker killed"
            ) from None
        except ChildDied as exc:
            self._live.pop(worker_id, None)
            raise WorkerDied(
                f"worker {worker_id} died running chunk {chunk_id}: {exc}"
            ) from exc
        if reply[0] == "error":
            raise ChunkFailed(
                f"chunk {chunk_id} failed on worker {worker_id}: {reply[1]}"
            )
        _, keys, stats = reply
        if keys != [point_key(point) for point in points]:
            self._drop(worker_id)
            raise WorkerDied(
                f"worker {worker_id} answered chunk {chunk_id} for other "
                "points; protocol desync"
            )
        return stats


class ServiceLauncher:
    """One sweep-service endpoint per worker slot.

    Each chunk becomes a ``POST /v1/sweep`` with the chunk's explicit
    encoded points; the remote end runs them through the exact
    ``run_point`` path a local sweep uses, so bit-identity is inherited
    from the wire contract.  Remote result caches are an optimization
    the determinism contract already covers (cached payloads are the
    verbatim bytes a fresh run produced).
    """

    def __init__(self, endpoints: list, timeout: float = 30.0,
                 use_cache: bool = True, poll_s: float = 0.05):
        from repro.service.client import ServiceClient

        if not endpoints:
            raise ValueError("need at least one service endpoint")
        self._clients = []
        for endpoint in endpoints:
            if isinstance(endpoint, str):
                host, _, port = endpoint.rpartition(":")
                self._clients.append(
                    ServiceClient(host or "127.0.0.1", int(port),
                                  timeout=timeout)
                )
            else:  # an existing client (tests inject doubles)
                self._clients.append(endpoint)
        self.workers = len(self._clients)
        self.use_cache = use_cache
        self.poll_s = poll_s

    def pids(self) -> dict[int, int]:
        return {}  # remote processes; nothing SIGKILL-able from here

    def close(self) -> None:
        pass  # servers outlive their clients by design

    def __enter__(self) -> "ServiceLauncher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run_chunk(
        self,
        worker_id: int,
        chunk_id: int,
        points: list[SweepPoint],
        timeout: float | None = None,
    ) -> list:
        from repro.service.client import FINAL_STATES, ServiceError

        client = self._clients[worker_id % self.workers]
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            view = client.sweep(
                points=[encode_point(point) for point in points],
                use_cache=self.use_cache,
            )
        except ServiceError as exc:
            raise ChunkFailed(
                f"chunk {chunk_id} rejected by worker {worker_id}: {exc}"
            ) from exc
        except OSError as exc:
            raise WorkerDied(
                f"service worker {worker_id} unreachable: {exc}"
            ) from exc
        envelope = view.get("result")
        if envelope is None:
            envelope = self._await(client, view["id"], chunk_id,
                                   worker_id, deadline)
        try:
            results = envelope["results"]
            return [stats_from_dict(results[point.label]) for point in points]
        except (KeyError, TypeError, ValueError) as exc:
            raise ChunkFailed(
                f"chunk {chunk_id}: service worker {worker_id} returned "
                f"an incomplete result envelope ({exc})"
            ) from exc

    def _await(self, client, job_id, chunk_id, worker_id, deadline) -> dict:
        from repro.service.client import FINAL_STATES, ServiceError

        while True:
            if deadline is not None and time.monotonic() >= deadline:
                try:
                    client.cancel(job_id)
                except (ServiceError, OSError):
                    pass
                raise ChunkTimeout(
                    f"chunk {chunk_id} (job {job_id}) timed out on "
                    f"service worker {worker_id}; job cancelled"
                )
            try:
                view = client.job(job_id)
            except OSError as exc:
                raise WorkerDied(
                    f"service worker {worker_id} unreachable while "
                    f"chunk {chunk_id} ran: {exc}"
                ) from exc
            if view["state"] in FINAL_STATES:
                break
            time.sleep(self.poll_s)
        if view["state"] != "done":
            raise ChunkFailed(
                f"chunk {chunk_id} {view['state']} on service worker "
                f"{worker_id}: {view.get('error')}"
            )
        try:
            return client.result(job_id)["result"]
        except (ServiceError, OSError) as exc:
            raise WorkerDied(
                f"service worker {worker_id} lost the result of chunk "
                f"{chunk_id}: {exc}"
            ) from exc
