"""Window-barrier parallel core: the shard side.

One simulation is still one logical event schedule, but SMs only
interact through the shared memory subsystem (NoC/L2/DRAM) and grid
bookkeeping — every such interaction already flows through a deferred
decision at a global ``(time, sm_id, seq)`` heap slot (see
``repro.sim.sm._run_local``).  Following "Parallelizing a modern GPU
simulator" (PAPERS.md, arXiv 2502.14691), the SMs are partitioned
round-robin across N shards and each shard advances independently up
to a window boundary ``T + W``; at the barrier the coordinator
*drains* every staged cross-shard interaction in merged
``(time, sm_id, k)`` order against the real memory subsystem, then
*delivers* the resulting completion times back to the parked warps.

This module holds what runs inside one shard; the coordinator (forked
shard workers exchanging staged interactions over pipes) lives in
:mod:`repro.sim.parallel_proc`.

Determinism/identity argument (locked by tests/sim/test_parallel_golden.py):

- **Windows are safe.**  ``W`` is the minimum cross-SM interaction
  latency (NoC request leg + L2 bank latency, see
  ``MemorySubsystem.min_cross_sm_latency``), so a completion produced
  by a decision inside window ``[T, T+W)`` lands at or past ``T+W`` —
  no decision inside the window could have observed it.
- **The drain replays sequential call order.**  All memory-subsystem
  mutations happen during deferred executions, which the sequential
  core runs in global ``(time, sm_id, seq)`` heap order with per-SM
  decision times strictly increasing.  Each shard pops its heap in
  that same order, so its staged ops come out key-sorted; a k-way
  merge by ``(time, sm_id, k)`` (``k`` a per-shard monotone counter)
  reproduces the exact sequential call sequence — including the
  relative order of writebacks, line requests, and grid-retire events
  within one decision.
- **Stall attribution is chunk-identical.**  An SM whose next wake
  falls at or past the window end parks *pseudo-dormant* (the
  ``_horizon`` gate in ``repro.sim.sm``) with the dominant reason
  computed at the decision time; the barrier resolves the true wake —
  possibly a freshly delivered cross-shard completion — and
  ``wake_accounting`` charges the whole span in one chunk, literally
  the ``add_stall`` the sequential jump would have made.
- **Shards are internally sequential**, so worker scheduling cannot
  reorder anything observable.

Runs that cannot be windowed exactly — CDP-capable applications
(``may_device_launch``), grids that cannot fully dispatch at submit,
configurations whose SM-local completions can exceed the safe window —
run the plain sequential event core instead.
"""

from __future__ import annotations

import itertools
from bisect import insort
from heapq import heappop, heappush
from operator import attrgetter

from repro.sim.gpu import GPUSimulator
from repro.sim.stats import RunStats
from repro.sim.warp import NEVER

_AGE = attrgetter("age")

# Staged-interaction kinds, replayed at the barrier in merged order.
_REQ = 0  # memory.line_request       -> completion slot
_BATCH = 1  # memory.line_requests    -> completion slot
_WB = 2  # memory.writeback           (fire-and-forget)
_CTA = 3  # gpu.cta_finished          (grid bookkeeping)


def exact_window(gpu) -> float | None:
    """The safe window width for ``gpu``, or ``None`` if none is exact.

    Windowed execution is bit-identical iff the window respects the
    minimum cross-SM latency and delivered wakes dominate SM-local
    completion parts (see :func:`local_completion_floor`).
    """
    safe = gpu.memory.min_cross_sm_latency()
    if local_completion_floor(gpu.config) >= safe:
        return None
    return safe


def local_completion_floor(config) -> int:
    """Largest completion delta a deferred memory decision can produce
    without the memory subsystem (its all-hit prefix / store part).

    Window execution delivers a parked warp's wake as the max over its
    staged completions; that is only the true (sequential) completion
    when every staged completion dominates the hit part, i.e. when
    this floor is below the minimum cross-SM latency.
    """
    port = 1 if config.l1_port_serialization else 0
    hit = max(
        config.l1.hit_latency,
        config.const_cache.hit_latency,
        config.tex_cache.hit_latency,
    )
    return (config.warp_size - 1) * port + hit


class _StagingMemory:
    """Duck-typed stand-in for :class:`MemorySubsystem` inside a window.

    Records each call under the shard's current ``(time, sm_id, k)``
    cursor instead of touching shared state, and returns ``NEVER`` so
    the issuing warp parks on an unknown completion (the same
    external-event-park the SM already implements for barriers); the
    barrier drain fills the slot and delivery wakes the warp.
    """

    __slots__ = ("_shard",)

    def __init__(self, shard: "_Shard"):
        self._shard = shard

    def line_request(self, sm_id, line, store, now):
        shard = self._shard
        slot = [NEVER]
        shard.staged.append(
            (shard.next_key(), _REQ, (sm_id, line, store, now), slot)
        )
        shard.open_slots.append(slot)
        return NEVER

    def line_requests(self, sm_id, entries, store):
        shard = self._shard
        slot = [NEVER]
        shard.staged.append(
            (shard.next_key(), _BATCH, (sm_id, tuple(entries), store), slot)
        )
        shard.open_slots.append(slot)
        return NEVER

    def writeback(self, sm_id, line, now):
        shard = self._shard
        shard.staged.append((shard.next_key(), _WB, (sm_id, line, now), None))


class _ShardContext:
    """The ``gpu`` argument handed to ``sm.step`` inside a window.

    Exposes exactly the surface the SM cores touch: the run-ahead
    flag, the (shard-local) event heap, the (staging) memory
    subsystem, and the launch/retire hooks.
    """

    #: always on — shard mode requires run-ahead (enforced by the
    #: eligibility check before any shard runs)
    _runahead = True

    __slots__ = ("_shard", "_gpu", "_heap", "_heap_seq", "memory")

    def __init__(self, shard: "_Shard", gpu: GPUSimulator):
        self._shard = shard
        self._gpu = gpu
        self._heap = shard.heap
        self._heap_seq = shard.seq
        self.memory = _StagingMemory(shard)

    def device_launch(self, sm, warp, spec, t):
        # Delegate to the real simulator: under run-ahead it raises
        # the loud mismarked-application error, which is exactly the
        # behavior a device launch reaching a shard must have (CDP
        # applications never enter windowed execution).
        self._gpu.device_launch(sm, warp, spec, t)

    def cta_finished(self, sm, grid, t, cta=None):
        shard = self._shard
        shard.staged.append((shard.next_key(), _CTA, (sm, grid, t, cta), None))


class _Shard:
    """A partition of the SM array with its own heap, stats, staging."""

    __slots__ = (
        "index", "sms", "heap", "seq", "staged", "parked", "open_slots",
        "stats", "telemetry", "cursor_t", "cursor_sm", "_k", "ctx",
    )

    def __init__(self, index: int, sms: list, gpu: GPUSimulator):
        self.index = index
        self.sms = sms
        self.heap: list = []
        self.seq = itertools.count()
        #: staged interactions ``(key, kind, payload, slot)``; keys are
        #: ``(time, sm_id, k)`` and come out sorted by construction
        #: (heap pops are (time, sm_id)-monotone, ``k`` is monotone)
        self.staged: list = []
        #: ``(sm, warp, slots)`` for warps parked on staged completions
        self.parked: list = []
        #: completion slots staged by the deferred decision being
        #: executed right now
        self.open_slots: list = []
        #: private counters: SMs of this shard write here so the hot
        #: paths stay single-writer; merged back at finalize
        self.stats = RunStats()
        self.telemetry = None
        self.cursor_t = 0.0
        self.cursor_sm = -1
        self._k = 0
        self.ctx = _ShardContext(self, gpu)

    def next_key(self):
        k = self._k
        self._k = k + 1
        return (self.cursor_t, self.cursor_sm, k)

    # -- window execution -------------------------------------------------
    def run_window(self, w_end: float) -> None:
        """Advance this shard's SMs up to the window boundary.

        Touches only shard-local state (SMs, heap, staging lists), so
        concurrent shards never share a writer.  The loop is the
        sequential ``_drive_grid`` pop loop with the window bound
        inlined; identical decisions, same stale-entry handling.
        """
        for sm in self.sms:
            sm._horizon = w_end
        heap = self.heap
        seq = self.seq
        ctx = self.ctx
        parked = self.parked
        while heap and heap[0][0] < w_end:
            t, sm_id, s, sm = heappop(heap)
            if t < sm.time and sm._deferred is None:
                # Stale entry — re-queue at the SM's real time (see
                # GPUSimulator._run_until for the rationale).
                heappush(heap, (sm.time, sm_id, next(seq), sm))
                continue
            pending = sm._deferred
            if pending is not None and s == sm._deferred_seq:
                # Executing a deferred (nonlocal) decision: stage its
                # memory traffic under this (time, sm_id) cursor.
                self.cursor_t = t
                self.cursor_sm = sm_id
                deferred_warp = pending[0]
            else:
                deferred_warp = None
            sm.step(ctx, t, s)
            slots = self.open_slots
            if slots:
                # The decision staged response-carrying requests; its
                # warp parked at NEVER and wakes at barrier delivery.
                parked.append((sm, deferred_warp, slots))
                self.open_slots = []
            if (
                sm._deferred is None
                and sm.dormant_since is None
                and sm.warps
            ):
                # Horizon-gated: the SM stopped with work remaining
                # (at sm.time >= w_end); hand it to the next window.
                heappush(heap, (sm.time, sm_id, next(seq), sm))

    # -- barrier phase 2 (after the drain) --------------------------------
    def deliver(self) -> None:
        """Wake parked warps and resolve pseudo-dormant SMs."""
        heap = self.heap
        seq = self.seq
        for sm, warp, slots in self.parked:
            # The true completion is the max over the staged slots:
            # the window-safety bound guarantees every slot dominates
            # the decision's SM-local (all-hit / store) part.
            wake = max(slot[0] for slot in slots)
            warp.next_ready = wake
            if wake <= sm.time:
                warp.in_ready = True
                insort(sm._ready, warp, key=_AGE)
            else:
                heappush(sm._wakes, (wake, warp.age, warp))
        self.parked.clear()
        for sm in self.sms:
            if sm.dormant_since is not None and sm.warps:
                wake = sm._next_wake()
                if wake != NEVER:
                    # Charges [dormant_since, wake) in one chunk with
                    # the dominant reason recorded at the decision —
                    # the exact add_stall the sequential jump makes.
                    sm.wake_accounting(wake)
                    heappush(heap, (wake, sm.sm_id, next(seq), sm))
                # else: truly dormant (all warps wait on events that
                # no shard can produce) — the deadlock check at the
                # next window boundary reports it.


__all__ = ["exact_window", "local_completion_floor"]
