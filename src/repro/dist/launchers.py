"""Worker slots the sweep coordinator dispatches chunks to.

A launcher owns ``workers`` slots and exposes one blocking primitive::

    run_chunk(worker_id, chunk_id, points, timeout) -> [RunStats, ...]

raising :class:`WorkerDied` (the worker is gone), :class:`ChunkTimeout`
(deadline passed; the worker is killed so a wedged simulation cannot
poison later chunks), or :class:`ChunkFailed` (the worker is healthy
but the chunk's simulation raised).  The coordinator treats all three
identically — re-queue and retry elsewhere — so launchers stay dumb
pipes and every robustness decision lives in one place.

Two implementations:

- :class:`LocalProcessLauncher` — one
  :class:`~repro.core.forked.ForkedChild` per chunk; the points go to
  the child as fork arguments and its ``RunStats`` come back pickled
  over the child's pipe.
- :class:`ServiceLauncher` — one remote ``repro serve`` instance per
  slot, driven through :class:`repro.service.client.ServiceClient`
  using the sweep endpoint's explicit-points mode; points travel in
  the HTTP point codec (:func:`repro.core.sweep.encode_point`).
"""

from __future__ import annotations

import time

from repro.core.forked import ChildDied, ChildTimeout, ForkedChild
from repro.core.sweep import (
    SweepPoint,
    TraceCache,
    encode_point,
    point_key,
    run_point,
)
from repro.sim.stats import stats_from_dict
from repro.sim.trace_store import TraceStore


class WorkerDied(RuntimeError):
    """A worker disappeared (EOF, broken pipe, dead connection)."""


class ChunkTimeout(RuntimeError):
    """A chunk blew its deadline; the worker running it was killed."""


class ChunkFailed(RuntimeError):
    """The worker is fine but the chunk's simulation raised."""


def _chunk_main(conn, points: list[SweepPoint], store) -> None:
    """Forked chunk body: run ``points``, send one reply, exit.

    The reply is ``("ok", keys, stats)`` — the points' identity keys
    and ``RunStats`` objects, in order — or ``("error", message,
    None)`` when a simulation raises.
    """
    cache = TraceCache(store=None if store is None else TraceStore(store))
    try:
        stats = [run_point(point, cache) for point in points]
        reply = ("ok", [point_key(point) for point in points], stats)
    except Exception as exc:  # noqa: BLE001 - report it to the parent
        reply = ("error", f"{type(exc).__name__}: {exc}", None)
    conn.send(reply)


class LocalProcessLauncher:
    """Local worker slots that fork one child per chunk.

    Each child runs its chunk through a fresh
    :class:`~repro.core.sweep.TraceCache` over ``store`` (a trace-store
    directory, or None for no store: a child never reads
    ``REPRO_TRACE_STORE`` itself), replies once and exits, so a death
    or a timeout kill costs only that chunk and the slot's next chunk
    forks a fresh child.
    """

    def __init__(self, workers: int = 2, store=None):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.store = store
        self._running: dict[int, ForkedChild] = {}

    def pids(self) -> dict[int, int]:
        """Pids of the chunk children running now, by slot."""
        return {
            worker_id: child.proc.pid
            for worker_id, child in list(self._running.items())
            if child.proc.is_alive()
        }

    def close(self) -> None:
        """Kill every chunk child still running."""
        while self._running:
            _, child = self._running.popitem()
            child.kill()

    def __enter__(self) -> "LocalProcessLauncher":
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
        """Run one chunk in a fresh child; blocking.  See module
        docstring for the failure contract."""
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            child = ForkedChild(_chunk_main, points, self.store)
        except OSError as exc:
            raise WorkerDied(
                f"worker {worker_id} could not fork: {exc}"
            ) from exc
        self._running[worker_id] = child
        try:
            reply = child.recv(deadline=deadline)
        except ChildTimeout:
            raise ChunkTimeout(
                f"chunk {chunk_id} exceeded {timeout}s on worker "
                f"{worker_id}; worker killed"
            ) from None
        except ChildDied as exc:
            raise WorkerDied(
                f"worker {worker_id} died running chunk {chunk_id}: {exc}"
            ) from exc
        finally:
            self._running.pop(worker_id, None)
            child.close()
        if reply[0] == "error":
            raise ChunkFailed(
                f"chunk {chunk_id} failed on worker {worker_id}: {reply[1]}"
            )
        _, keys, stats = reply
        if keys != [point_key(point) for point in points]:
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
