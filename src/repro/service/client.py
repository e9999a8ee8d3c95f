"""A small blocking client for the service API (stdlib only).

Used by ``tests/service/`` and scriptable from user code::

    from repro.service.client import ServiceClient

    client = ServiceClient("127.0.0.1", 8777)
    job = client.simulate("NW", config={"num_sms": 8})
    view = client.wait(job["id"])
    stats = client.stats(job["id"])       # a real RunStats again
    print(stats.ipc)

Calls reuse persistent HTTP/1.1 connections from a small pool, so a
cache hit costs one request round trip, not a TCP handshake and a new
server thread.  The pool is lock-guarded, so one client instance is
safe to share across threads: each concurrent call checks out its own
connection.  A connection the server closed while it sat idle in the
pool is retried once on a fresh one (only when it fails before any
response byte, so no request is answered twice).  Connections opened
before a ``fork`` are dropped in the child, never shared.  ``close()``
(or leaving a ``with`` block) closes the pooled connections::

    with ServiceClient("127.0.0.1", 8777) as client:
        client.health()
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from http.client import HTTPConnection

from repro.sim.stats import RunStats, stats_from_dict

#: Job states that end a :meth:`ServiceClient.wait` poll loop.
FINAL_STATES = ("done", "failed", "cancelled", "timeout")

#: Idle connections a client keeps; more concurrent calls than this
#: open extra connections that close when their call returns.
POOL_SIZE = 4


def _close_all(connections: list) -> None:
    while connections:
        connections.pop().close()


class ServiceError(RuntimeError):
    """A non-2xx response; carries the server's error envelope."""

    def __init__(self, status: int, body):
        self.status = status
        self.body = body
        message = (
            body.get("error") if isinstance(body, dict) else None
        ) or f"HTTP {status}"
        super().__init__(f"{message} (HTTP {status})")


class ServiceClient:
    def __init__(self, host: str = "127.0.0.1", port: int = 8777,
                 timeout: float = 120.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._idle: list[HTTPConnection] = []
        self._pid = os.getpid()
        # A client dropped without close() still closes its sockets.
        weakref.finalize(self, _close_all, self._idle)

    def close(self) -> None:
        """Close the pooled connections (the client stays usable)."""
        with self._lock:
            _close_all(self._idle)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transport ----------------------------------------------------------
    def _checkout(self) -> HTTPConnection:
        with self._lock:
            if self._pid != os.getpid():
                # Forked: the parent's sockets are not this process's
                # to use.  Closing the child's copies leaves them open
                # in the parent.
                self._pid = os.getpid()
                _close_all(self._idle)
            if self._idle:
                return self._idle.pop()
        return HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _checkin(self, conn: HTTPConnection) -> None:
        with self._lock:
            if self._pid == os.getpid() and len(self._idle) < POOL_SIZE:
                self._idle.append(conn)
                return
        conn.close()

    def _request(self, method: str, path: str, payload: dict | None = None,
                 raw: bool = False):
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        conn = self._checkout()
        # A pooled connection has a socket; a fresh one opens its own
        # in request().
        reused = conn.sock is not None
        try:
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            except ConnectionError:
                # No response byte arrived, so the server never answered
                # this request: a reused connection was closed under us
                # (idle timeout, server restart).  Retry once, fresh.
                if not reused:
                    raise
                conn.close()
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            data = response.read()
            status = response.status
        except BaseException:
            conn.close()
            raise
        self._checkin(conn)
        if raw and status < 400:
            return data
        try:
            parsed = json.loads(data) if data else {}
        except ValueError:
            parsed = {"error": data.decode(errors="replace")}
        if status >= 400:
            raise ServiceError(status, parsed)
        return parsed

    # -- submission ---------------------------------------------------------
    def submit(self, kind: str, **payload) -> dict:
        """POST one request; returns the job view (result inline on a
        cache hit — check ``view.get("result")``)."""
        return self._request("POST", f"/v1/{kind}", payload)

    def simulate(self, benchmark: str, **payload) -> dict:
        return self.submit("simulate", benchmark=benchmark, **payload)

    def estimate(self, benchmark: str, **payload) -> dict:
        return self.submit("estimate", benchmark=benchmark, **payload)

    def profile(self, benchmark: str, **payload) -> dict:
        return self.submit("profile", benchmark=benchmark, **payload)

    def sweep(self, **payload) -> dict:
        return self.submit("sweep", **payload)

    # -- lifecycle ----------------------------------------------------------
    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> list:
        return self._request("GET", "/v1/jobs")["jobs"]

    def result(self, job_id: str) -> dict:
        """The full result envelope (409 -> ServiceError until done)."""
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def stats(self, job_id: str) -> RunStats:
        """The job's stats payload, rebuilt into a live ``RunStats``."""
        return stats_from_dict(self.result(job_id)["result"]["stats"])

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: float = 0.05) -> dict:
        """Poll until the job is terminal; returns the final view."""
        deadline = time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if view["state"] in FINAL_STATES:
                return view
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {view['state']} after {timeout}s"
                )
            time.sleep(poll)

    def run(self, kind: str, timeout: float = 120.0, **payload) -> dict:
        """Submit and block until done; returns the result envelope.

        Raises :class:`ServiceError` when the job fails/cancels/times
        out (the 409 from the result route carries the job's error).
        """
        view = self.submit(kind, **payload)
        if view.get("result") is not None:  # cache hit answered inline
            return {"job": view, "result": view["result"]}
        self.wait(view["id"], timeout=timeout)
        return self.result(view["id"])

    # -- observability ------------------------------------------------------
    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def artifact(self, job_id: str, name: str) -> bytes:
        return self._request(
            "GET", f"/v1/jobs/{job_id}/artifacts/{name}", raw=True
        )
