"""The sweep coordinator: chunk, dispatch, retry, merge.

:func:`run_dsweep` turns one point grid into the same ``{label:
RunStats}`` mapping a local :func:`~repro.core.sweep.run_sweep`
returns — bit-identically — by cutting the grid into one work unit per
application (:func:`make_chunks`) and dispatching them across a
launcher's worker slots (:mod:`repro.dist.launchers`).

Determinism contract
--------------------
Results are merged by *input position*, never arrival order, and the
merge is checked against the full grid
(:func:`~repro.core.sweep.resume_merge`) before anything is
returned.  Workers run points through the exact ``run_point`` path a
local sweep uses, and stats come back either pickled (local workers)
or through the bit-exact ``to_dict``/``stats_from_dict`` round trip
(HTTP), so where a point ran can never change what it returned.

Robustness
----------
Failures re-queue the chunk for any other worker, bounded by
``max_retries`` attempts; only when a chunk exhausts its retries —
i.e. the work could not be re-run elsewhere either — does the sweep
fail, loudly, naming the lost point identities
(:class:`DistSweepError`).  A worker death costs only the chunk it
was running: the slot's next chunk starts afresh (a new forked child
locally, a new request to a service); a chunk that blows
``chunk_timeout`` gets its worker killed first so a wedged simulation
cannot absorb retries.  When every
pending chunk is taken, idle workers re-dispatch the slowest in-flight
straggler (elapsed > :data:`STRAGGLER_FACTOR` x the median
completed-chunk duration); whichever copy finishes first wins and the
duplicate result is dropped.  With a ``journal``, completed chunks are
persisted as they land, so an interrupted sweep re-run against the
same journal resumes every finished point instead of recomputing it
(:mod:`repro.dist.journal`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.core.sweep import SweepPoint, app_key, point_key, resume_merge
from repro.dist.journal import SweepJournal
from repro.dist.launchers import ChunkFailed, ChunkTimeout, WorkerDied

#: An idle worker duplicates an in-flight chunk once it has run this
#: many times the median completed-chunk duration.
STRAGGLER_FACTOR = 4.0

#: Consecutive deaths or timeouts after which a worker slot is
#: quarantined; at most the default ``max_retries``, so one bad slot
#: can never exhaust a chunk's retries alone.
WORKER_FAILURE_LIMIT = 2

#: A straggler must also have run at least this long before an idle
#: worker duplicates it (guards against thrashing on tiny chunks).
MIN_STRAGGLER_S = 0.5


class DistSweepError(RuntimeError):
    """The sweep lost points it could not re-run anywhere.

    Raised only after the retry budget is exhausted; carries the lost
    point identities (``label [point_key]``) and the last failure.
    """

    def __init__(self, lost: list[str], cause: str):
        self.lost = list(lost)
        self.cause = cause
        super().__init__(
            f"lost {len(self.lost)} point(s) after exhausting retries: "
            f"{self.lost} (last failure: {cause})"
        )


@dataclass
class _Chunk:
    """One work unit: every point of one application, in grid order."""

    id: int
    indices: list[int]  # positions in the (todo) point list
    points: list[SweepPoint]
    keys: list[str] = field(default_factory=list)
    attempts: int = 0  # dispatches that have *failed*
    running: int = 0  # live dispatches right now (straggler dup <= 2)
    started: float = 0.0  # monotonic start of the oldest live dispatch

    def __post_init__(self):
        if not self.keys:
            self.keys = [point_key(point) for point in self.points]


def make_chunks(points: list[SweepPoint]) -> list[list[int]]:
    """Index chunks: one per :func:`~repro.core.sweep.app_key` group.

    A worker that materializes an application's traces replays them
    for every other point of its chunk.  Order inside a chunk follows
    input order, so the merge is position-stable.
    """
    groups: dict[tuple, list[int]] = {}
    for index, point in enumerate(points):
        groups.setdefault(app_key(point), []).append(index)
    return list(groups.values())


class _State:
    """Shared coordinator state; every mutation holds ``cond``."""

    def __init__(self, chunks: list[_Chunk], max_retries: int,
                 workers: int):
        self.cond = threading.Condition()
        self.pending: deque[_Chunk] = deque(chunks)
        self.results: dict[int, list] = {}
        self.durations: list[float] = []
        self.duplicates = 0  # results dropped by first-wins
        self.redispatches = 0  # straggler duplications issued
        self.retries = 0  # failure re-queues
        self.retired = 0  # worker slots quarantined for repeat deaths
        self.max_retries = max_retries
        self.fatal: DistSweepError | None = None
        self.inflight: dict[int, _Chunk] = {}
        self.active = workers

    def done(self) -> bool:
        return self.fatal is not None or (
            not self.pending and not self.inflight
        )

    # -- dispatch ------------------------------------------------------------
    def next_chunk(self) -> _Chunk | None:
        """Pop fresh work, or duplicate a straggler; None = wait/exit."""
        while self.pending:
            chunk = self.pending.popleft()
            if chunk.id in self.results:
                continue  # a straggler duplicate beat the retry to it
            return chunk
        return self._steal_straggler()

    def _steal_straggler(self) -> _Chunk | None:
        if not self.durations:
            return None
        ordered = sorted(self.durations)
        median = ordered[len(ordered) // 2]
        threshold = max(STRAGGLER_FACTOR * median, MIN_STRAGGLER_S)
        now = time.monotonic()
        slowest = None
        for chunk in self.inflight.values():
            if chunk.running != 1 or chunk.id in self.results:
                continue  # already duplicated (or already answered)
            elapsed = now - chunk.started
            if elapsed > threshold and (
                slowest is None
                or elapsed > now - slowest.started
            ):
                slowest = chunk
        if slowest is not None:
            self.redispatches += 1
        return slowest

    def begin(self, chunk: _Chunk) -> None:
        if chunk.running == 0:
            chunk.started = time.monotonic()
        chunk.running += 1
        self.inflight[chunk.id] = chunk

    def _settle(self, chunk: _Chunk) -> None:
        chunk.running -= 1
        if chunk.running <= 0:
            self.inflight.pop(chunk.id, None)

    # -- outcomes ------------------------------------------------------------
    def complete(self, chunk: _Chunk, stats: list) -> bool:
        """Record a result; False when a duplicate already landed."""
        with self.cond:
            self._settle(chunk)
            if chunk.id in self.results:
                self.duplicates += 1
                self.cond.notify_all()
                return False
            self.results[chunk.id] = stats
            self.durations.append(time.monotonic() - chunk.started)
            self.cond.notify_all()
            return True

    def fail(self, chunk: _Chunk, exc: Exception) -> None:
        """Re-queue a failed dispatch, or declare the sweep lost."""
        with self.cond:
            self._settle(chunk)
            if chunk.id in self.results:
                # The other copy of this straggler already answered;
                # this failure cost nothing.
                self.cond.notify_all()
                return
            chunk.attempts += 1
            if chunk.attempts > self.max_retries:
                if self.fatal is None:
                    self.fatal = DistSweepError(
                        lost=[
                            f"{point.label} [{key}]"
                            for point, key in zip(chunk.points, chunk.keys)
                        ],
                        cause=f"{type(exc).__name__}: {exc}",
                    )
            else:
                self.retries += 1
                self.pending.append(chunk)
            self.cond.notify_all()

    def retire_worker(self, exc: Exception) -> None:
        """A slot quarantined itself after repeated deaths, ``exc``
        the last.

        The sweep survives as long as one slot remains; losing the last
        one with work outstanding is fatal — naming everything still
        unfinished and the death that retired it — because nothing is
        left to re-run it on.
        """
        with self.cond:
            self.active -= 1
            self.retired += 1
            if self.active == 0 and self.fatal is None and not self.done():
                remaining = [
                    f"{point.label} [{key}]"
                    for chunk in list(self.pending)
                    + list(self.inflight.values())
                    if chunk.id not in self.results
                    for point, key in zip(chunk.points, chunk.keys)
                ]
                self.fatal = DistSweepError(
                    lost=remaining,
                    cause="every worker slot died repeatedly; "
                          f"{type(exc).__name__}: {exc}",
                )
            self.cond.notify_all()


def _worker_loop(worker_id: int, launcher, state: _State,
                 chunk_timeout, journal) -> None:
    consecutive_deaths = 0
    while True:
        with state.cond:
            while True:
                if state.done():
                    return
                chunk = state.next_chunk()
                if chunk is not None:
                    state.begin(chunk)
                    break
                # Nothing to take yet: wake on completions/failures,
                # or on a timer so straggler checks keep happening.
                state.cond.wait(timeout=0.05)
        try:
            stats = launcher.run_chunk(
                worker_id, chunk.id, chunk.points, timeout=chunk_timeout
            )
        except ChunkFailed as exc:
            # The worker is healthy; the failure belongs to the chunk.
            consecutive_deaths = 0
            state.fail(chunk, exc)
            continue
        except (WorkerDied, ChunkTimeout) as exc:
            state.fail(chunk, exc)
            consecutive_deaths += 1
            if consecutive_deaths >= WORKER_FAILURE_LIMIT:
                # This slot keeps dying (bad host, poisoned fork):
                # quarantine it so it stops bleeding chunk retries.
                state.retire_worker(exc)
                return
            continue
        consecutive_deaths = 0
        if state.complete(chunk, stats) and journal is not None:
            journal.record(chunk.keys, stats)


def run_dsweep(
    points: list[SweepPoint],
    launcher,
    chunk_timeout: float | None = None,
    max_retries: int = 2,
    journal=None,
):
    """Run every point across ``launcher``'s workers; returns
    ``{point.label: RunStats}`` in input order, bit-identical to
    ``run_sweep(points)``.

    ``journal`` (a path or :class:`~repro.dist.journal.SweepJournal`)
    records each completed chunk, and every point it already holds is
    filled from it by :func:`~repro.core.sweep.resume_merge` before
    chunking — whichever sweep wrote it.

    Failure budgets compose: each chunk survives ``max_retries``
    failed dispatches, and each worker slot survives
    :data:`WORKER_FAILURE_LIMIT` *consecutive* deaths/timeouts before
    it is quarantined (a slot that dies on every chunk it touches would
    otherwise drain the whole grid's retry budget by itself).
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if journal is not None and not isinstance(journal, SweepJournal):
        journal = SweepJournal(journal)
    known = journal.open() if journal is not None else None
    run_dsweep.last_stats = dict.fromkeys(
        ("chunks", "retries", "redispatches", "duplicates_dropped",
         "workers_retired"), 0,
    )
    # Everything is resumed unless ``dispatch`` is handed work.
    run_dsweep.last_stats["resumed"] = len(points)

    def dispatch(todo: list[SweepPoint]) -> list:
        chunks = [
            _Chunk(id=i, indices=indices,
                   points=[todo[j] for j in indices])
            for i, indices in enumerate(make_chunks(todo))
        ]
        workers = max(1, getattr(launcher, "workers", 1))
        state = _State(chunks, max_retries=max_retries, workers=workers)
        threads = [
            threading.Thread(
                target=_worker_loop,
                args=(worker_id, launcher, state, chunk_timeout, journal),
                name=f"repro-dsweep-{worker_id}",
                daemon=True,
            )
            for worker_id in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if state.fatal is not None:
            raise state.fatal

        merged: list = [None] * len(todo)
        for chunk in chunks:
            # A chunk without results stays None: the merge check names it.
            for position, one in zip(chunk.indices,
                                     state.results.get(chunk.id, ())):
                merged[position] = one
        run_dsweep.last_stats.update(  # introspection for tests/benchmarks
            chunks=len(chunks),
            resumed=len(points) - len(todo),
            retries=state.retries,
            redispatches=state.redispatches,
            duplicates_dropped=state.duplicates,
            workers_retired=state.retired,
        )
        return merged

    return resume_merge(points, known, dispatch)


#: Stats of the most recent ``run_dsweep`` call (single-threaded use).
run_dsweep.last_stats = {}
