"""Distributed sweep engine: run one point grid across many workers.

The coordinator (:mod:`repro.dist.coordinator`) cuts a
``(benchmark, cdp, size, config)`` point grid into one work unit per
application, dispatches them to a launcher's worker slots — local
slots (:class:`~repro.dist.launchers.LocalProcessLauncher`, which
forks one :class:`~repro.core.forked.ForkedChild` per chunk and reads
its pickled ``RunStats`` back; the engine behind ``run_sweep(jobs>=1)``
and ``repro sweep benchmark --jobs N``) or remote ``repro serve``
instances (:class:`~repro.dist.launchers.ServiceLauncher`, which posts
points in the HTTP point codec, :func:`~repro.core.sweep.encode_point`;
``repro sweep benchmark --endpoints``) — and
merges the results back in input order, bit-identical to a local
:func:`~repro.core.sweep.run_sweep` of the same grid.  Robustness is
structural: per-chunk timeouts with bounded retry, straggler
re-dispatch, worker-death detection that only fails the sweep after
the work could not be re-run elsewhere, and a point-keyed sweep
journal (:mod:`repro.dist.journal`, shared with ``run_sweep``) so an
interrupted sweep resumes without recomputation.
"""

from repro.dist.coordinator import DistSweepError, make_chunks, run_dsweep
from repro.dist.journal import SweepJournal
from repro.dist.launchers import (
    ChunkFailed,
    ChunkTimeout,
    LocalProcessLauncher,
    ServiceLauncher,
    WorkerDied,
)

__all__ = [
    "ChunkFailed",
    "ChunkTimeout",
    "DistSweepError",
    "LocalProcessLauncher",
    "ServiceLauncher",
    "SweepJournal",
    "WorkerDied",
    "make_chunks",
    "run_dsweep",
]
