"""The lookahead horizon of CDP replays.

The event core's issue loop (:meth:`StreamingMultiprocessor.step
<repro.sim.sm.StreamingMultiprocessor.step>`) runs an SM ahead of the
global event order only below a *horizon* ``H``: a lower bound on the
simulated time of the next event that can change another SM's state or
end the drive.  Those events are

- any ``LAUNCH`` (child dispatch admits CTAs on other SMs at their
  clocks, and places pending grids), and
- any grid completion (a child wakes its DEVSYNC-parked parent on
  another SM; the driven host grid hands control back to the host,
  whose memcpy flushes every cache).

Every event at or above ``H`` runs in global order, after every
decision below it, so SM-local run-ahead below ``H`` cannot be
observed.  :class:`Horizon` computes ``H`` from the warps' positions in
their materialized traces (see DESIGN.md, "Lookahead horizon").
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from bisect import bisect_left
from operator import attrgetter, length_hint

from repro.isa.instructions import K_LAUNCH
from repro.sim.warp import CTA, NEVER, Grid, Warp

_KIND = attrgetter("kind")
_REPEAT = attrgetter("repeat")
_LAUNCH_KIND = bytes([K_LAUNCH])


class Horizon:
    """The bound terms of one simulator's lookahead horizon.

    A warp issues its next instruction no earlier than ``lb =
    max(next_ready, sm.time)`` (``sm.time`` alone while it waits on a
    barrier: its release is a decision on its own SM), and each
    instruction holds the issue port for at least ``repeat`` cycles, so
    the instruction at trace position ``q`` issues no earlier than ``lb
    + prefix[q] - prefix[pos]``.  The terms are every warp's next LAUNCH
    and every grid's completion, no earlier than the latest of its live
    warps' EXIT bounds nor before its ``available_time``.

    Each term keeps the bound last computed for it in a min-heap.  A
    bound only grows as warps issue, so a stale one is still a lower
    bound: :meth:`bound` pops the least term, recomputes it and
    re-queues it while it grew, which leaves the true minimum on top.
    A warp parked on DEVSYNC waits for its children, whose grids are
    terms themselves, so its terms and its grid's drop out until
    :meth:`parent_woken` re-queues them.  Events only add terms at or
    after their own time, which is at or above ``H``, so nothing is
    ever invalidated.

    One state pins ``H`` at ``-inf`` (the gated loop): a pending grid
    that can launch, whose CTAs any CTA finish may admit.
    """

    def __init__(self) -> None:
        #: ``(bound, seq, warp, grid)``: a warp's next LAUNCH (``grid``
        #: None) or a grid's completion, tracked through the warp with
        #: the latest EXIT bound at its last scan
        self._terms: list = []
        self._seq = itertools.count()
        #: grid -> its warps admitted so far (exited ones dropped at
        #: each scan), and the round-robin cursor of its probes
        self._grid_warps: dict = {}
        self._grid_probe: dict = {}
        #: id(trace list) -> [list, LAUNCH positions, prefix or None];
        #: holding the list keeps its id its own
        self._tables: dict = {}
        #: grid -> whether any of its undispatched warps can launch;
        #: whether one such grid is pending, as of ``_pending_seen``
        self._grid_launches: dict = {}
        self._pending_seen = None
        self._pending_launch = False

    # -- events ---------------------------------------------------------------
    def grid_submitted(self, grid: Grid) -> None:
        self._push(grid.available_time, None, grid)

    def cta_admitted(self, cta: CTA) -> None:
        self._grid_warps.setdefault(cta.grid, []).extend(cta.warps)
        for warp in cta.warps:
            self._push_launch(warp)

    def parent_woken(self, warp: Warp, t: float) -> None:
        """``warp`` left DEVSYNC at ``t``: its terms count again."""
        self._push(t, None, warp.cta.grid)
        self._push_launch(warp)

    def grid_finished(self, grid: Grid) -> None:
        self._grid_warps.pop(grid, None)
        self._grid_probe.pop(grid, None)
        self._grid_launches.pop(grid, None)

    def pending_changed(self) -> None:
        """The pending-grid list was edited in place."""
        self._pending_seen = None

    # -- the bound ------------------------------------------------------------
    def bound(self, pending: list) -> float:
        """``H`` given the GPU's pending grids (see the class doc)."""
        if pending is not self._pending_seen:
            # The GPU rebuilds its pending list whenever grids leave
            # it (and right after each append), so identity tells when
            # to look again.
            self._pending_seen = pending
            self._pending_launch = any(map(self._grid_may_launch, pending))
        if self._pending_launch:
            return -NEVER
        terms = self._terms
        while terms:
            top = terms[0]
            bound, _, warp, grid = top
            if grid is None:
                fresh = self._launch_bound(warp)
            elif grid.finished:
                fresh = None
            elif warp is None or warp.exited or warp.waiting_device_sync:
                fresh, warp = self._scan_grid(grid)
            else:
                fresh = self._exit_bound(warp)
                if fresh <= bound:
                    fresh, warp = self._probe_grid(grid, bound, warp)
            if fresh is None:
                heapq.heappop(terms)
            elif fresh > bound or warp is not top[2]:
                # A grid's bound may fall as warps exit; the stored one
                # stays a valid (tighter) bound.
                heapq.heapreplace(
                    terms, (max(fresh, bound), next(self._seq), warp, grid)
                )
            else:
                return bound
        return NEVER

    def _push(self, bound: float, warp, grid) -> None:
        heapq.heappush(self._terms, (bound, next(self._seq), warp, grid))

    def _push_launch(self, warp: Warp) -> None:
        bound = self._launch_bound(warp)
        if bound is not None:
            self._push(bound, warp, None)

    def _launch_bound(self, warp: Warp):
        """Earliest issue time of ``warp``'s next LAUNCH (None: none
        left, or the warp is parked on DEVSYNC or gone)."""
        if warp.exited or warp.waiting_device_sync:
            return None
        ops = warp.ops
        table = self._table(ops)
        launches = table[1]
        if not launches:
            return None
        pos = len(ops) - length_hint(warp.trace)
        i = bisect_left(launches, pos)
        if i == len(launches):
            return None
        prefix = table[2] or self._prefix(table)
        now = warp.cta.sm.time
        lb = warp.next_ready
        if lb < now or lb == NEVER:
            lb = now
        return lb + prefix[launches[i]] - prefix[pos]

    def _exit_bound(self, warp: Warp) -> float:
        """Earliest issue time of a live warp's EXIT (its last op)."""
        ops = warp.ops
        table = self._table(ops)
        prefix = table[2] or self._prefix(table)
        now = warp.cta.sm.time
        lb = warp.next_ready
        if lb < now or lb == NEVER:
            lb = now
        return lb + prefix[-2] - prefix[len(ops) - length_hint(warp.trace)]

    def _scan_grid(self, grid: Grid) -> tuple:
        """``(bound, warp)``: the earliest completion time of ``grid``
        and the live warp with the latest EXIT bound (None without
        one); ``(None, None)`` while a live warp is parked on DEVSYNC."""
        bound = grid.available_time
        latest = None
        warps = self._grid_warps.get(grid)
        if not warps:
            return bound, latest
        live = [warp for warp in warps if not warp.exited]
        self._grid_warps[grid] = live
        for warp in live:
            if warp.waiting_device_sync:
                return None, None
            done = self._exit_bound(warp)
            if done > bound:
                bound, latest = done, warp
        return bound, latest

    def _probe_grid(self, grid: Grid, bound: float, latest: Warp) -> tuple:
        """``grid``'s latest warp has not moved since its last scan, but
        another may have passed it: test one other warp per call, round
        robin, so the bound keeps tightening at O(1) a refresh (a full
        rescan per refresh cost more than the gated loop it saves)."""
        warps = self._grid_warps[grid]
        i = self._grid_probe.get(grid, 0)
        self._grid_probe[grid] = i + 1
        other = warps[i % len(warps)]
        if other.waiting_device_sync:
            return self._scan_grid(grid)
        if not other.exited:
            done = self._exit_bound(other)
            if done > bound:
                return done, other
        return bound, latest

    # -- per-trace tables ------------------------------------------------------
    def _table(self, ops: list) -> list:
        """``[ops, launches, prefix]`` of one materialized trace, its
        LAUNCH positions found at first sight (one C-level scan)."""
        table = self._tables.get(id(ops))
        if table is None:
            kinds = bytes(map(_KIND, ops))
            launches = []
            i = kinds.find(_LAUNCH_KIND)
            while i >= 0:
                launches.append(i)
                i = kinds.find(_LAUNCH_KIND, i + 1)
            table = self._tables[id(ops)] = [ops, launches, None]
        return table

    @staticmethod
    def _prefix(table: list) -> array:
        """``prefix[i]``: the fewest cycles ``ops[:i]`` hold the issue
        port (an ALU block ``repeat``, anything else one), built when a
        bound first needs it."""
        prefix = table[2] = array(
            "q", itertools.accumulate(map(_REPEAT, table[0]), initial=0)
        )
        return prefix

    def _grid_may_launch(self, grid: Grid) -> bool:
        """Can any not-yet-dispatched warp of ``grid`` device-launch?"""
        known = self._grid_launches.get(grid)
        if known is None:
            kernel = grid.kernel
            known = False
            for cta_id in range(grid.next_cta, grid.num_ctas):
                for warp_id in range(kernel.warps_per_cta):
                    ops = kernel.warp_trace(grid.context(cta_id, warp_id))
                    known = bool(self._table(ops)[1])
                    if known:
                        break
                if known:
                    break
            self._grid_launches[grid] = known
        return known
