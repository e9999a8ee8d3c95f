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

- :class:`LocalProcessLauncher` — persistent forked workers running
  :func:`repro.dist.worker.serve`, speaking the length-prefixed frame
  protocol of :mod:`repro.dist.wire` over a pipe pair each.
- :class:`ServiceLauncher` — one remote ``repro serve`` instance per
  slot, driven through :class:`repro.service.client.ServiceClient`
  using the sweep endpoint's explicit-points mode.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import struct
import threading
import time

from repro.core.sweep import SweepPoint, point_key
from repro.dist.wire import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    decode_stats,
    encode_point,
    write_frame,
)
from repro.dist.worker import serve

#: How long a freshly forked worker gets to answer the hello exchange.
SPAWN_TIMEOUT_S = 60.0


class WorkerDied(RuntimeError):
    """A worker disappeared (EOF, broken pipe, dead connection)."""


class ChunkTimeout(RuntimeError):
    """A chunk blew its deadline; the worker running it was killed."""


class ChunkFailed(RuntimeError):
    """The worker is fine but the chunk's simulation raised."""


class _Worker:
    """One forked worker: its process, pipe ends and read buffer."""

    def __init__(self, proc, request_fd: int, result_fd: int):
        self.proc = proc
        self.fds = (request_fd, result_fd)  # the parent's pipe ends
        self.to_child = os.fdopen(request_fd, "wb")
        self.from_child = result_fd
        self.buffer = b""


def _child_main(request_fd: int, result_fd: int, foreign_fds: list,
                env: dict) -> None:
    """Forked worker body: keep one pipe pair, set the env, serve.

    Every other pipe end is closed first — the parent's ends of this
    worker's pair and every sibling's — so the parent still sees EOF
    the moment any one worker dies.
    """
    for fd in foreign_fds:
        os.close(fd)
    for name, value in env.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    try:
        serve(os.fdopen(request_fd, "rb"), os.fdopen(result_fd, "wb"))
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
        self._live: dict[int, _Worker] = {}
        # Coordinator threads spawn and drop workers concurrently; this
        # lock guards ``_live`` and its pipe ends, so every fork sees
        # exactly the sibling ends it must close.
        self._lock = threading.Lock()
        self.spawns = 0

    # -- lifecycle -----------------------------------------------------------
    def _spawn(self, worker_id: int) -> _Worker:
        env = {"REPRO_TRACE_STORE": None if self.store is None
               else str(self.store)}
        for extra in (self.extra_env, self.worker_env.get(worker_id, {})):
            env.update({k: str(v) for k, v in extra.items()})
        with self._lock:
            request_r, request_w = os.pipe()
            result_r, result_w = os.pipe()
            foreign = [request_w, result_r] + [
                fd for worker in self._live.values() for fd in worker.fds
            ]
            proc = multiprocessing.get_context("fork").Process(
                target=_child_main,
                args=(request_r, result_w, foreign, env),
                daemon=True,
            )
            try:
                proc.start()
            except OSError as exc:
                for fd in (request_r, request_w, result_r, result_w):
                    os.close(fd)
                raise WorkerDied(
                    f"worker {worker_id} could not fork: {exc}"
                ) from exc
            os.close(request_r)
            os.close(result_w)
            worker = _Worker(proc, request_w, result_r)
            self.spawns += 1
            try:
                write_frame(worker.to_child,
                            {"type": "hello", "wire": WIRE_VERSION})
                reply = self._read_frame(
                    worker, time.monotonic() + SPAWN_TIMEOUT_S,
                    chunk_id=None,
                )
            except (WorkerDied, ChunkTimeout, OSError) as exc:
                self._kill(worker)
                raise WorkerDied(
                    f"worker {worker_id} died during startup: {exc}"
                ) from exc
            if reply.get("type") != "hello" or reply.get("wire") != WIRE_VERSION:
                self._kill(worker)
                raise WorkerDied(
                    f"worker {worker_id} spoke wire version "
                    f"{reply.get('wire')!r}, expected {WIRE_VERSION}"
                )
            self._live[worker_id] = worker
        return worker

    def _ensure(self, worker_id: int) -> _Worker:
        worker = self._live.get(worker_id)
        if worker is not None and worker.proc.is_alive():
            return worker
        if worker is not None:
            self._drop(worker_id)
        return self._spawn(worker_id)

    def _kill(self, worker: _Worker) -> None:
        worker.proc.kill()
        worker.proc.join()
        try:
            worker.to_child.close()
        except OSError:
            pass
        os.close(worker.from_child)

    def _drop(self, worker_id: int) -> None:
        with self._lock:
            worker = self._live.pop(worker_id, None)
            if worker is not None:
                self._kill(worker)

    def pids(self) -> dict[int, int]:
        """Live worker pids (the SIGKILL tests aim at these)."""
        return {
            worker_id: worker.proc.pid
            for worker_id, worker in self._live.items()
            if worker.proc.is_alive()
        }

    def close(self) -> None:
        """Politely stop every worker (kill the ones that won't)."""
        for worker_id in list(self._live):
            worker = self._live[worker_id]
            try:
                write_frame(worker.to_child, {"type": "exit"})
            except (OSError, ValueError):
                pass
            worker.proc.join(timeout=5)
            self._drop(worker_id)

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
        worker = self._ensure(worker_id)
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            write_frame(worker.to_child, {
                "type": "chunk",
                "chunk": chunk_id,
                "points": [encode_point(point) for point in points],
            })
        except (OSError, ValueError) as exc:
            self._drop(worker_id)
            raise WorkerDied(
                f"worker {worker_id} unreachable: {exc}"
            ) from exc
        try:
            frame = self._read_frame(worker, deadline, chunk_id)
        except ChunkTimeout:
            # The worker is wedged on this chunk; kill it so the slot
            # comes back clean for the retry (wherever that lands).
            self._drop(worker_id)
            raise ChunkTimeout(
                f"chunk {chunk_id} exceeded {timeout}s on worker "
                f"{worker_id}; worker killed"
            ) from None
        except WorkerDied as exc:
            self._drop(worker_id)
            raise WorkerDied(
                f"worker {worker_id} died running chunk {chunk_id}: {exc}"
            ) from exc
        if frame.get("type") == "error":
            raise ChunkFailed(
                f"chunk {chunk_id} failed on worker {worker_id}: "
                f"{frame.get('error')}"
            )
        expected = [point_key(point) for point in points]
        if (
            frame.get("type") != "result"
            or frame.get("chunk") != chunk_id
            or frame.get("keys") != expected
        ):
            self._drop(worker_id)
            raise WorkerDied(
                f"worker {worker_id} answered chunk {chunk_id} with a "
                f"mismatched frame ({frame.get('type')!r} for chunk "
                f"{frame.get('chunk')!r}); protocol desync"
            )
        return [decode_stats(payload) for payload in frame["stats"]]

    # -- frame IO with a deadline --------------------------------------------
    def _read_frame(self, worker: _Worker, deadline, chunk_id) -> dict:
        fd = worker.from_child
        while True:
            frame, worker.buffer = _try_parse(worker.buffer)
            if frame is not None:
                return frame
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ChunkTimeout(f"chunk {chunk_id}")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                raise ChunkTimeout(f"chunk {chunk_id}")
            data = os.read(fd, 1 << 16)
            if not data:
                raise WorkerDied("EOF on the worker's result stream")
            worker.buffer += data


def _try_parse(buffer: bytes):
    """One complete frame off ``buffer``: ``(payload|None, rest)``."""
    import json

    if len(buffer) < 4:
        return None, buffer
    (length,) = struct.unpack("<I", buffer[:4])
    if length > MAX_FRAME_BYTES:
        raise WorkerDied(f"frame of {length} bytes exceeds the wire limit")
    if len(buffer) < 4 + length:
        return None, buffer
    try:
        payload = json.loads(buffer[4:4 + length])
    except ValueError as exc:
        raise WorkerDied(f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise WorkerDied(f"frame must be an object, got {payload!r}")
    return payload, buffer[4 + length:]


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
            return [decode_stats(results[point.label]) for point in points]
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
