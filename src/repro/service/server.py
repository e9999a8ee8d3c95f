"""Stdlib HTTP layer over :class:`~repro.service.service.SimulationService`.

Endpoints (all JSON unless noted)::

    POST   /v1/simulate | /v1/estimate | /v1/sweep | /v1/profile
               -> 200 job view (cache hit, result inline)
               -> 202 job view (queued / coalesced)
    GET    /v1/jobs                    -> job list (most recent first)
    GET    /v1/jobs/<id>               -> job view
    GET    /v1/jobs/<id>/result        -> {job, result} (409 until done)
    DELETE /v1/jobs/<id>               -> cancel; view + "cancelled" flag
    GET    /v1/jobs/<id>/artifacts/<name>  -> raw artifact bytes
    GET    /metrics                    -> observability counters
    GET    /healthz                    -> {"ok": true}

Every response carries ``X-Request-Id`` (echoing the request header or
minting one) and one structured log line goes to stderr per request:
``[repro.serve] rid=... method path status dur_ms``.  Errors use the
uniform envelope from :func:`repro.service.schemas.error_body`.

Built on ``ThreadingHTTPServer`` with no third-party dependencies:
the heavy lifting happens in the job queue's bounded workers, and
cache hits are file reads.  Connections are persistent (HTTP/1.1
keep-alive), so a thread serves one connection, not one request: a
client that reuses its connection pays no TCP handshake and no thread
start per call.  Each response leaves in one write on a
``TCP_NODELAY`` socket, so a reused connection never waits out the
peer's delayed ACK (about 40 ms on Linux).  A connection idle for
:data:`IDLE_TIMEOUT_S` is closed, and ``shutdown()`` /
``server_close()`` close every open one, so no handler thread keeps
answering after the server stops.
"""

from __future__ import annotations

import errno
import json
import re
import socket
import sys
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.schemas import (
    SCHEMA_VERSION,
    REQUEST_TYPES,
    SchemaError,
    error_body,
)
from repro.service.service import SimulationService

_JOB_ROUTE = re.compile(r"^/v1/jobs/([0-9a-f]+)$")
_RESULT_ROUTE = re.compile(r"^/v1/jobs/([0-9a-f]+)/result$")
_ARTIFACT_ROUTE = re.compile(
    r"^/v1/jobs/([0-9a-f]+)/artifacts/([A-Za-z0-9._-]+)$"
)

#: Upper bound on accepted request bodies (1 MiB is generous for
#: config overrides; anything larger is a client bug or abuse).
MAX_BODY_BYTES = 1 << 20

#: Seconds a persistent connection may sit between requests before the
#: server closes it and frees its thread.  Clients retry a request that
#: meets a connection closed this way on a fresh one.
IDLE_TIMEOUT_S = 15.0


class ServiceHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`SimulationService`."""

    daemon_threads = True

    def __init__(self, address, service: SimulationService):
        self.service = service
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        super().__init__(address, _Handler)

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def _close_connections(self) -> None:
        """End every open connection: the handler threads blocked on
        their next request line read EOF and exit."""
        with self._open_lock:
            connections = list(self._open)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler

    def shutdown(self) -> None:  # also stops the workers
        super().shutdown()
        self._close_connections()
        self.service.shutdown()

    def server_close(self) -> None:
        super().server_close()
        self._close_connections()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: ServiceHTTPServer

    def setup(self) -> None:
        self.timeout = IDLE_TIMEOUT_S  # read per connection, not at import
        super().setup()

    # -- plumbing -----------------------------------------------------------
    def _begin(self) -> None:
        self.request_id = (
            self.headers.get("X-Request-Id") or uuid.uuid4().hex[:12]
        )
        self._started = time.monotonic()

    def _send(self, status: int, data: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.send_header("X-Request-Id", self.request_id)
        if self.close_connection:
            self.send_header("Connection", "close")
        # Head and body in one write: a second small write on a reused
        # connection would otherwise be held for the peer's delayed ACK.
        self._headers_buffer.append(b"\r\n")
        self._headers_buffer.append(data)
        self.flush_headers()
        self._log(status)

    def _send_json(self, status: int, body: dict) -> None:
        self._send(status, json.dumps(body).encode(), "application/json")

    def _send_error(self, status: int, message: str,
                    field: str | None = None) -> None:
        self._send_json(
            status, error_body(message, self.request_id, field)
        )

    def _log(self, status: int) -> None:
        dur_ms = (time.monotonic() - self._started) * 1000.0
        print(
            f"[repro.serve] rid={self.request_id} {self.command} "
            f"{self.path} {status} {dur_ms:.1f}ms",
            file=sys.stderr,
            flush=True,
        )

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # replaced by the structured _log line

    def _read_body(self):
        # A body refused here stays unread, and the next request on
        # this connection would start inside it: close the connection.
        encoding = self.headers.get("Transfer-Encoding")
        if encoding is not None:
            self.close_connection = True
            raise SchemaError(
                "Transfer-Encoding",
                f"is not supported, got {encoding!r}; "
                "send the body with a Content-Length",
            )
        header = self.headers.get("Content-Length")
        try:
            length = int(header or 0)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise SchemaError(
                "Content-Length",
                f"must be a non-negative integer, got {header!r}",
            )
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise SchemaError("", f"request body over {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise SchemaError("", f"invalid JSON body: {exc}") from exc

    # -- verbs --------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._begin()
        kind = self.path.rstrip("/").rpartition("/")[2]
        if not self.path.startswith("/v1/") or kind not in REQUEST_TYPES:
            self.close_connection = True  # its body is never read
            self._send_error(404, f"no such endpoint {self.path!r}")
            return
        try:
            payload = self._read_body()
            job = self.server.service.submit(
                kind, payload, request_id=self.request_id
            )
        except SchemaError as exc:
            self._send_error(400, str(exc), field=exc.field or None)
            return
        body = job.view().to_dict()
        if job.state == "done":
            body["result"] = job.result
            self._send_json(200, body)
        else:
            self._send_json(202, body)

    def do_GET(self) -> None:  # noqa: N802
        self._begin()
        service = self.server.service
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._send_json(
                200, {"ok": True, "schema_version": SCHEMA_VERSION}
            )
            return
        if path == "/metrics":
            self._send_json(200, service.metrics_dict())
            return
        if path == "/v1/jobs":
            jobs = sorted(
                service.queue.jobs.values(),
                key=lambda job: job.submitted_at,
                reverse=True,
            )
            self._send_json(
                200,
                {
                    "schema_version": SCHEMA_VERSION,
                    "jobs": [job.view().to_dict() for job in jobs[:200]],
                },
            )
            return
        match = _JOB_ROUTE.match(path)
        if match:
            job = service.job(match.group(1))
            if job is None:
                self._send_error(404, f"unknown job {match.group(1)!r}")
            else:
                self._send_json(200, job.view().to_dict())
            return
        match = _RESULT_ROUTE.match(path)
        if match:
            self._send_result(service, match.group(1))
            return
        match = _ARTIFACT_ROUTE.match(path)
        if match:
            self._send_artifact(service, match.group(1), match.group(2))
            return
        self._send_error(404, f"no such endpoint {path!r}")

    def do_DELETE(self) -> None:  # noqa: N802
        self._begin()
        match = _JOB_ROUTE.match(self.path)
        if not match:
            self._send_error(404, f"no such endpoint {self.path!r}")
            return
        job = self.server.service.job(match.group(1))
        if job is None:
            self._send_error(404, f"unknown job {match.group(1)!r}")
            return
        cancelled = self.server.service.cancel(job.id)
        body = job.view().to_dict()
        body["cancelled"] = cancelled
        self._send_json(200, body)

    # -- route bodies -------------------------------------------------------
    def _send_result(self, service, job_id: str) -> None:
        job = service.job(job_id)
        if job is None:
            self._send_error(404, f"unknown job {job_id!r}")
            return
        if job.state != "done":
            self._send_error(
                409,
                f"job {job_id} is {job.state}"
                + (f": {job.error}" if job.error else ""),
            )
            return
        self._send_json(
            200,
            {
                "schema_version": SCHEMA_VERSION,
                "job": job.view().to_dict(),
                "result": job.result,
            },
        )

    def _send_artifact(self, service, job_id: str, name: str) -> None:
        job = service.job(job_id)
        if job is None:
            self._send_error(404, f"unknown job {job_id!r}")
            return
        if name not in job.artifacts or job.artifact_dir is None:
            self._send_error(
                404, f"job {job_id} has no artifact {name!r}"
            )
            return
        try:
            data = (job.artifact_dir / name).read_bytes()
        except OSError:
            self._send_error(404, f"artifact {name!r} is gone")
            return
        content_type = (
            "application/json" if name.endswith(".json")
            else "application/x-ndjson" if name.endswith(".jsonl")
            else "application/octet-stream"
        )
        self._send(200, data, content_type)


def make_server(
    host: str,
    port: int,
    service: SimulationService | None = None,
    **service_kwargs,
) -> ServiceHTTPServer:
    """Bind a server (``port=0`` picks a free port; see
    ``server.server_address``).  Raises ``OSError`` (``EADDRINUSE``)
    when the port is taken — callers own the friendly message."""
    if service is None:
        service = SimulationService(**service_kwargs)
    return ServiceHTTPServer((host, port), service)


def serve(
    host: str = "127.0.0.1",
    port: int = 8777,
    workers: int | None = None,
    cache_root=None,
    artifact_root=None,
    cache_max_entries: int | None = None,
    cache_max_bytes: int | None = None,
) -> None:
    """Blocking entry point for ``repro serve``."""
    server = make_server(
        host,
        port,
        workers=workers,
        cache_root=cache_root,
        artifact_root=artifact_root,
        cache_max_entries=cache_max_entries,
        cache_max_bytes=cache_max_bytes,
    )
    bound = server.server_address
    cache = cache_root or "off"
    print(
        f"[repro.serve] listening on http://{bound[0]}:{bound[1]} "
        f"(workers={server.service.queue.workers}, result cache: {cache})",
        file=sys.stderr,
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.shutdown()
        server.server_close()


def is_port_in_use_error(exc: OSError) -> bool:
    """True for the bind failures ``repro serve`` reports as exit 2."""
    return exc.errno in (errno.EADDRINUSE, errno.EACCES)
