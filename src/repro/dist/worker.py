"""The worker end of a local sweep worker slot.

:func:`serve` runs in each
:class:`~repro.dist.launchers.LocalProcessLauncher` child
(a :class:`~repro.core.forked.ForkedChild`).  It receives lists of
:class:`~repro.core.sweep.SweepPoint` over its pipe, runs each through
:func:`~repro.core.sweep.run_point`, and answers ``("ok", keys,
stats)`` — the points' identity keys and ``RunStats`` objects, in
order, pickled by the connection — or ``("error", message, None)``
when a simulation raises.  EOF on the pipe ends the worker.

The worker keeps one warm :class:`~repro.core.sweep.TraceCache`
(backed by ``REPRO_TRACE_STORE`` when set) across every chunk it runs,
so same-application points replay materialized traces exactly like an
in-process ``run_sweep`` does.

Failure injection (tests only): ``REPRO_DIST_DIE_AFTER=N`` makes the
worker exit hard — no reply, no cleanup, exactly like a SIGKILL —
upon receiving its ``N``-th chunk, and ``REPRO_DIST_STALL_S=X``
sleeps ``X`` seconds before answering each chunk (a deterministic
straggler).
"""

from __future__ import annotations

import os
import time

from repro.core.sweep import TraceCache, point_key, run_point
from repro.sim.trace_store import TraceStore


def serve(conn) -> int:
    """Answer chunks on ``conn`` until the parent closes its end."""
    die_after = int(os.environ.get("REPRO_DIST_DIE_AFTER", "0"))
    stall_s = float(os.environ.get("REPRO_DIST_STALL_S", "0"))
    cache = TraceCache(store=TraceStore.from_env())
    chunks_seen = 0
    while True:
        try:
            points = conn.recv()
        except EOFError:
            return 0
        chunks_seen += 1
        if die_after and chunks_seen >= die_after:
            os._exit(13)  # simulate SIGKILL mid-chunk: no reply, no cleanup
        if stall_s:
            time.sleep(stall_s)
        try:
            stats = [run_point(point, cache) for point in points]
            reply = ("ok", [point_key(point) for point in points], stats)
        except Exception as exc:  # noqa: BLE001 - report, stay alive
            reply = ("error", f"{type(exc).__name__}: {exc}", None)
        conn.send(reply)
