"""The worker end of the local dsweep protocol.

:func:`serve` runs in each forked
:class:`~repro.dist.launchers.LocalProcessLauncher` child.  It reads
length-prefixed JSON frames from its request pipe and answers on its
result pipe (see :mod:`repro.dist.wire`): a ``hello`` version
handshake, then ``chunk`` frames carrying encoded sweep points, each
answered by a ``result`` frame (the points' stats, in order, tagged
with their identity keys) or an ``error`` frame when a simulation
raises.  EOF or an ``exit`` frame ends the worker.

The worker keeps one warm :class:`~repro.core.sweep.TraceCache`
(backed by ``REPRO_TRACE_STORE`` when set) across every chunk it runs,
so same-application points replay materialized traces exactly like an
in-process ``run_sweep`` does.

Failure injection (tests only): ``REPRO_DIST_DIE_AFTER=N`` makes the
worker exit hard — no reply, no cleanup, exactly like a SIGKILL —
upon receiving its ``N``-th chunk frame, and ``REPRO_DIST_STALL_S=X``
sleeps ``X`` seconds before answering each chunk (a deterministic
straggler).
"""

from __future__ import annotations

import os
import time

from repro.core.sweep import TraceCache, point_key, run_point
from repro.dist.wire import WIRE_VERSION, decode_point, read_frame, write_frame
from repro.sim.trace_store import TraceStore


def serve(proto_in, proto_out) -> int:
    """The frame loop over one request/result stream pair."""
    die_after = int(os.environ.get("REPRO_DIST_DIE_AFTER", "0"))
    stall_s = float(os.environ.get("REPRO_DIST_STALL_S", "0"))
    cache = TraceCache(store=TraceStore.from_env())
    chunks_seen = 0
    while True:
        frame = read_frame(proto_in)
        if frame is None:
            return 0
        kind = frame.get("type")
        if kind == "exit":
            return 0
        if kind == "hello":
            write_frame(proto_out, {
                "type": "hello",
                "wire": WIRE_VERSION,
                "pid": os.getpid(),
            })
            continue
        if kind != "chunk":
            write_frame(proto_out, {
                "type": "error",
                "chunk": frame.get("chunk"),
                "error": f"unknown frame type {kind!r}",
            })
            continue
        chunks_seen += 1
        if die_after and chunks_seen >= die_after:
            os._exit(13)  # simulate SIGKILL mid-chunk: no reply, no cleanup
        if stall_s:
            time.sleep(stall_s)
        try:
            points = [decode_point(data) for data in frame["points"]]
            stats = [run_point(point, cache) for point in points]
            write_frame(proto_out, {
                "type": "result",
                "chunk": frame["chunk"],
                "keys": [point_key(point) for point in points],
                "stats": [s.to_dict() for s in stats],
            })
        except Exception as exc:  # noqa: BLE001 - report, stay alive
            write_frame(proto_out, {
                "type": "error",
                "chunk": frame.get("chunk"),
                "error": f"{type(exc).__name__}: {exc}",
            })
