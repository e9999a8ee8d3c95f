"""Top-level GPU simulator: SMs + memory subsystem + host interface.

Event-driven: a priority queue orders SM scheduling decisions by local
time, keeping shared-resource (L2/NoC/DRAM) accesses approximately
causally ordered across SMs.  The host executes applications
synchronously — each launch runs the grid to completion, matching the
per-kernel measurement methodology of the paper.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, insort

from repro.sim.config import GPUConfig
from repro.sim.horizon import Horizon
from repro.sim.kernel import KernelProgram
from repro.sim.launch import Application, HostLaunch, HostMemcpy, KernelLaunch
from repro.sim.memory import MemorySubsystem
from repro.sim.occupancy import SimulationDeadlock, check_cta_fits
from repro.sim.replay import CachedApplication
from repro.sim.sm import _STALL_KEYS, StreamingMultiprocessor
from repro.sim.stats import RunStats, StallReason
from repro.sim.warp import CTA, NEVER, Grid, Warp


class GPUSimulator:
    """One device instance; use one simulator per application run."""

    def __init__(self, config: GPUConfig | None = None, telemetry=None):
        self.config = config or GPUConfig()
        self.stats = RunStats()
        if telemetry is None and self.config.telemetry_interval > 0:
            from repro.sim.telemetry import Telemetry

            telemetry = Telemetry(self.config.telemetry_interval)
        #: time-resolved sampler (None when off — the hot paths check a
        #: local ``is not None`` and pay nothing else)
        self.telemetry = telemetry
        self.memory = MemorySubsystem(self.config, telemetry=telemetry)
        if self.config.event_core:
            sm_cls = StreamingMultiprocessor
        else:
            # Scan-per-decision baseline, kept for golden bit-identity
            # tests and benchmarking (imported lazily: the fast core
            # must not pay for it).
            from repro.sim.sm_reference import ReferenceSM as sm_cls
        self.sms = [
            sm_cls(i, self.config, self.stats)
            for i in range(self.config.num_sms)
        ]
        #: stall cycles the issue loops charged since the last fold, per
        #: reason in ``_STALL_KEYS`` order; one list shared by every SM,
        #: so a fold is one pass however many SMs there are
        self._stall_cycles = [0] * len(_STALL_KEYS)
        writeback = self.memory.writeback
        for sm in self.sms:
            sm._tel = telemetry
            sm._stall_cycles = self._stall_cycles
            # Dirty L1 evictions flow to L2/DRAM at the SM's local time.
            sm.l1.writeback_sink = (
                lambda line, _sm=sm, _id=sm.sm_id: writeback(
                    _id, line, _sm.time
                )
            )
        #: ``(used_threads, sm_id)`` of every SM, ascending: the order
        #: CTAs are placed in, kept sorted at each admit and release
        #: (``_reorder``; ``_placed[sm_id]`` is the SM's recorded load)
        self._load_order = [(0, sm.sm_id) for sm in self.sms]
        self._placed = [0] * len(self.sms)
        self._heap: list = []
        self._heap_seq = itertools.count()
        self._pending_grids: list[Grid] = []
        self._active_grids = 0
        self.host_time = 0.0
        self._finalized = False
        #: the running application's trace totals (``TraceCounts``),
        #: credited to the stats in ``finalize`` — the one place
        #: instructions are counted
        self._counts = None
        #: The lookahead horizon H: a lower bound on the simulated time
        #: of the next event that can change another SM's state or end
        #: the drive (``repro.sim.horizon``).  Below it the issue loop
        #: runs SM-locally; at or above it each decision is gated on
        #: the global heap (see StreamingMultiprocessor.step).
        self._horizon = -NEVER
        #: the terms H is recomputed from; None pins H — at ``inf`` for
        #: applications that declare they can never device-launch (set
        #: in ``run_application``), at ``-inf`` on the reference core,
        #: which has no run-ahead
        self._lookahead = Horizon() if self.config.event_core else None
        #: optional ``(cta, t)`` callback fired as each CTA retires —
        #: the sampled-estimation mode records per-CTA durations here.
        #: ``None`` (the default) costs one attribute check per CTA.
        self.cta_observer = None
        #: optional ``(launch, grid)`` callback fired after each host
        #: launch completes (the host program is synchronous, so the
        #: callback sees all of the launch's traffic — CDP descendants
        #: included — already retired).  The sampled-estimation mode
        #: snapshots memory-system counters here to attribute cache
        #: and DRAM/NoC traffic to individual host launches.
        self.launch_observer = None

    # -- grid management ---------------------------------------------------
    def submit_grid(self, grid: Grid) -> None:
        """Queue a grid and place as many CTAs as currently fit.

        A host grid whose CTA does not fit even an empty SM can never
        run: it raises :class:`repro.sim.occupancy.CTAMisfit` (a
        :class:`SimulationDeadlock`) here, naming the kernel and the
        resource.  A CDP child that big still waits for
        ``_force_admit_child``.
        """
        if grid.parent_warp is None:
            check_cta_fits(self.config, grid.kernel)
        self._pending_grids.append(grid)
        self._active_grids += 1
        if self._lookahead is not None:
            self._lookahead.grid_submitted(grid)
        self._dispatch_pending()

    def _place(self, kernel: KernelProgram) -> StreamingMultiprocessor | None:
        """The least-loaded SM, by ``(used_threads, sm_id)``, that can
        admit a CTA of ``kernel``: the first in the load order that can.

        Least-loaded placement keeps concurrent small grids (CDP
        children especially) spread across the machine.  While any SM
        is idle the first in the order is the lowest-id idle one, so a
        launch onto a quiet machine checks one SM per CTA.  An SM
        without room for the CTA's threads ends the walk: every later
        SM holds at least as many.
        """
        headroom = self.config.max_threads_per_sm - kernel.cta_threads
        sms = self.sms
        for used, sm_id in self._load_order:
            if used > headroom:
                return None
            sm = sms[sm_id]
            if sm.can_admit(kernel):
                return sm
        return None

    def _reorder(self, sm: StreamingMultiprocessor) -> None:
        """Move ``sm`` to its place in the load order after an admit or
        a release changed its ``used_threads``."""
        sm_id = sm.sm_id
        used = sm.used_threads
        placed = self._placed[sm_id]
        if used != placed:
            order = self._load_order
            del order[bisect_left(order, (placed, sm_id))]
            insort(order, (used, sm_id))
            self._placed[sm_id] = used

    def _dispatch_pending(self) -> None:
        """Place pending CTAs, in submission order, each on the SM
        :meth:`_place` picks, until a grid's next CTA fits nowhere.

        Fully-dispatched grids are dropped by rebuilding the pending
        list once, not with ``list.remove`` inside the scan — many
        small grids (CDP children especially) made that quadratic.
        """
        pending = self._pending_grids
        if not pending:
            return
        remaining: list[Grid] = []
        for grid in pending:
            kernel = grid.kernel
            while not grid.dispatch_done:
                sm = self._place(kernel)
                if sm is None:
                    break
                cta = sm.admit_cta(grid, grid.available_time)
                cta.sm = sm
                self._reorder(sm)
                if self._lookahead is not None:
                    self._lookahead.cta_admitted(cta)
                self._wake_sm(sm, max(sm.time, grid.available_time))
            if not grid.dispatch_done:
                remaining.append(grid)
        self._pending_grids = remaining

    def refill_sm(self, sm: StreamingMultiprocessor, t: float) -> None:
        """A CTA finished on ``sm``; backfill from pending grids.

        All admissions coalesce into a single heap entry at the
        earliest start time — ``wake_accounting`` still runs per
        admission (it advances ``sm.time`` to late ``available_time``s,
        which admission start times depend on), but the event heap no
        longer accumulates duplicate wakes for one SM.
        """
        pending = self._pending_grids
        if not pending:
            return
        remaining: list[Grid] = []
        wake: float | None = None
        for grid in pending:
            while not grid.dispatch_done and sm.can_admit(grid.kernel):
                start = max(t, grid.available_time)
                cta = sm.admit_cta(grid, start)
                cta.sm = sm
                if self._lookahead is not None:
                    self._lookahead.cta_admitted(cta)
                sm.wake_accounting(start)
                if wake is None or start < wake:
                    wake = start
            if not grid.dispatch_done:
                remaining.append(grid)
        self._pending_grids = remaining
        if wake is not None:
            heapq.heappush(
                self._heap, (wake, sm.sm_id, next(self._heap_seq), sm)
            )

    def cta_finished(
        self,
        sm: StreamingMultiprocessor,
        grid: Grid,
        t: float,
        cta: CTA | None = None,
    ) -> None:
        """A CTA of ``grid`` retired on ``sm`` at ``t``.

        Grid bookkeeping lives here (not in the SM): it touches other
        grids and the pending-dispatch queue.
        """
        if cta is not None:
            if self.cta_observer is not None:
                self.cta_observer(cta, t)
            # Break the warp <-> CTA cycle: a retired CTA then goes
            # with its last reference, not at a gen-2 collection.
            cta.warps = []
        grid.remaining_ctas -= 1
        if grid.finished:
            grid.completion_time = t
            self.on_grid_finished(grid, t)
        self.refill_sm(sm, t)
        self._reorder(sm)

    def device_launch(
        self,
        sm: StreamingMultiprocessor,
        warp: Warp,
        spec: KernelLaunch,
        t: float,
    ) -> None:
        """CDP: a warp on ``sm`` launches ``spec`` as a child grid."""
        if t < self._horizon:
            # Run-ahead is only sound below the next device launch
            # (child dispatch mutates other SMs).  Fail loudly rather
            # than let a mismarked application or a wrong bound diverge
            # silently.
            if self._lookahead is None:
                raise RuntimeError(
                    f"application declared may_device_launch=False but "
                    f"kernel {spec.kernel.name!r} issued a device launch; "
                    "fix the application's may_device_launch flag"
                )
            raise RuntimeError(
                f"device LAUNCH of kernel {spec.kernel.name!r} at cycle "
                f"{t} is below the lookahead horizon {self._horizon}"
            )
        config = self.config
        available = t + config.cdp_launch_cycles + config.cdp_dispatch_cycles
        child = Grid(
            spec.kernel,
            spec.num_ctas,
            args=spec.args,
            available_time=available,
            parent_warp=warp,
        )
        warp.pending_children += 1
        self.stats.device_launches += 1
        # Cores wait through device-runtime setup before the child is
        # runnable — functional-done time, same as a host launch.
        self.stats.add_stall(
            StallReason.FUNCTIONAL_DONE, config.cdp_dispatch_cycles
        )
        tel = self.telemetry
        if tel is not None:
            tel.stall(t, StallReason.FUNCTIONAL_DONE.value,
                      config.cdp_dispatch_cycles)
            tel.event("cdp_launch", spec.kernel.name, t,
                      ctas=spec.num_ctas, sm=sm.sm_id)
        self.submit_grid(child)

    def on_grid_finished(self, grid: Grid, t: float) -> None:
        """Completion hook: wake a CDP parent waiting on this child."""
        if self._lookahead is not None:
            if t < self._horizon:
                raise RuntimeError(
                    f"grid of kernel {grid.kernel.name!r} completed at "
                    f"cycle {t}, below the lookahead horizon "
                    f"{self._horizon}"
                )
            self._lookahead.grid_finished(grid)
        self._active_grids -= 1
        self.stats.kernel_timeline.append({
            "kernel": grid.kernel.name,
            "start": int(grid.start_time if grid.start_time is not None
                         else grid.available_time),
            "end": int(t),
            "ctas": grid.num_ctas,
            "origin": "device" if grid.parent_warp is not None else "host",
        })
        parent = grid.parent_warp
        if parent is None:
            return
        parent.pending_children -= 1
        if parent.pending_children == 0 and parent.waiting_device_sync:
            parent.waiting_device_sync = False
            parent_sm = parent.cta.sm
            if parent_sm is not None:
                # The SM keeps its ready/wake structures consistent.
                parent_sm.wake_warp(parent, t)
                self._wake_sm(parent_sm, max(parent_sm.time, t))
                if self._lookahead is not None:
                    self._lookahead.parent_woken(parent, t)
            else:  # pragma: no cover - CTAs always record their SM
                parent.next_ready = t
                parent.block_reason = None

    # -- event loop -----------------------------------------------------------
    def _wake_sm(self, sm: StreamingMultiprocessor, t: float) -> None:
        sm.wake_accounting(t)
        heapq.heappush(self._heap, (t, sm.sm_id, next(self._heap_seq), sm))

    def _force_admit_child(self) -> bool:
        """Deadlock avoidance for CDP: swap a child in over blocked parents.

        When every CTA slot is held by device-sync-blocked parents, the
        CUDA device runtime virtualizes parent state so children can
        run (forward progress is guaranteed for nested launches).  The
        model's equivalent: admit one pending *child* CTA past the
        resource limits on the least-loaded SM.  Returns True if a CTA
        was placed.
        """
        for index, grid in enumerate(self._pending_grids):
            if grid.parent_warp is None or grid.dispatch_done:
                continue
            sm = self.sms[self._load_order[0][1]]
            start = max(sm.time, grid.available_time)
            cta = sm.admit_cta(grid, start)
            cta.sm = sm
            self._reorder(sm)
            if grid.dispatch_done:
                # Drop by index: ``list.remove`` rescans from the front
                # and turned deep CDP backlogs quadratic.
                del self._pending_grids[index]
            if self._lookahead is not None:
                self._lookahead.cta_admitted(cta)
                self._lookahead.pending_changed()
            self._wake_sm(sm, start)
            return True
        return False

    def refresh_horizon(self) -> float:
        """Recompute the lookahead horizon; the issue loop calls this
        where a decision at or above the current one would be gated."""
        self._horizon = horizon = self._lookahead.bound(self._pending_grids)
        return horizon

    def _drive_grid(self, grid: Grid) -> None:
        """Run the event loop until ``grid`` completes.

        Pops SMs in ``(time, sm_id, seq)`` order and steps each.  While
        the stepped SM is strictly next anyway it keeps stepping without
        the push/pop round trip; ties defer to the heap, whose sequence
        numbers keep the FIFO order, so the schedule is identical to the
        push-then-pop loop.  The completion check is a
        ``remaining_ctas`` read once per ``step``; an SM is re-queued
        before returning, because every live SM stays in the heap
        between calls (several grids can be driven one after another).
        """
        heap = self._heap
        heappop, heappush = heapq.heappop, heapq.heappush
        heap_seq = self._heap_seq
        while grid.remaining_ctas:
            if not heap:
                if self._pending_grids and self._force_admit_child():
                    continue
                raise SimulationDeadlock(
                    "no runnable SMs but the run predicate is unsatisfied "
                    f"(pending grids: {len(self._pending_grids)})"
                )
            t, _, s, sm = heappop(heap)
            if t < sm.time and sm._deferred is None:
                # Stale entry: the SM's clock already ran past it, so
                # stepping now would execute a decision at ``sm.time``
                # inside the ``t`` slot — leapfrogging other SMs whose
                # decisions fall in between.  Re-queue at the SM's real
                # time so every decision pops at the slot it simulates
                # (deferred entries are exempt: their time is frozen at
                # the decision time, and bouncing would orphan the
                # recorded sequence number).
                heappush(heap, (sm.time, sm.sm_id, next(heap_seq), sm))
                continue
            sm.step(self, t, s)
            while sm.warps and sm.dormant_since is None:
                if sm._deferred is not None:
                    # The SM queued its next (nonlocal) decision under
                    # its own heap entry; don't push a duplicate.
                    break
                if heap and heap[0][0] <= sm.time:
                    heappush(heap, (sm.time, sm.sm_id, next(heap_seq), sm))
                    break
                if not grid.remaining_ctas:
                    heappush(heap, (sm.time, sm.sm_id, next(heap_seq), sm))
                    return
                sm.step(self, sm.time)

    def run_grid(self, launch: KernelLaunch, at_time: float | None = None) -> Grid:
        """Launch a grid and run the device until it completes."""
        start = self.host_time if at_time is None else at_time
        grid = Grid(
            launch.kernel, launch.num_ctas, args=launch.args,
            available_time=start,
        )
        self.submit_grid(grid)
        self._drive_grid(grid)
        self._fold_stalls()
        return grid

    def _fold_stalls(self) -> None:
        """Move the issue loops' stall cycles into ``stats.stalls``: at
        every launch boundary (ahead of ``launch_observer``, which may
        snapshot the stalls) and at finalize.  ``_stall`` entered each
        key at its first charge, so the dict's key order is the one
        charging every stall directly would give."""
        acc = self._stall_cycles
        stalls = self.stats.stalls
        for i, cycles in enumerate(acc):
            if cycles:
                stalls[_STALL_KEYS[i]] += int(cycles)
                acc[i] = 0

    # -- host interface ----------------------------------------------------
    def _memcpy_cycles(self, nbytes: int) -> int:
        pci = self.config.pci
        return pci.latency_cycles + math.ceil(nbytes / pci.bytes_per_cycle)

    def run_application(self, app: Application) -> RunStats:
        """Execute an application's host program to completion.

        Every warp replays a materialized trace, and the application's
        ``total_counts`` are the run's instruction, memory and
        occupancy mixes.  An application without them (a plain
        ``build_application`` result) runs as ``CachedApplication(app,
        template=False)``: every warp through its generator, once.
        """
        if self._finalized:
            raise RuntimeError("simulator instances are single use")
        if self.config.sample_fraction > 0:
            raise RuntimeError(
                "config requests sampled estimation "
                f"(sample_fraction={self.config.sample_fraction}); use "
                "repro.sim.sampled.estimate_application, not "
                "run_application"
            )
        if getattr(app, "total_counts", None) is None:
            app = CachedApplication(app, template=False)
        self._counts = app.total_counts
        # Unbounded run-ahead is only sound when no kernel can ever
        # device-launch; applications opt in by declaring it (the
        # Application default is the conservative True).  Everything
        # else runs ahead up to the recomputed horizon.
        if self.config.event_core and not getattr(
            app, "may_device_launch", True
        ):
            self._lookahead = None
            self._horizon = NEVER
        config = self.config
        tel = self.telemetry
        for op in app.host_program():
            if isinstance(op, HostMemcpy):
                cycles = self._memcpy_cycles(op.nbytes)
                self.stats.memcpy_calls += 1
                self.stats.pci_cycles += cycles
                if tel is not None:
                    tel.event("memcpy", op.direction, self.host_time,
                              dur=cycles, nbytes=op.nbytes)
                self.host_time += cycles
                if (
                    op.direction == "h2d"
                    and config.flush_on_memcpy
                    and not config.perfect_memory
                ):
                    # Fresh device data invalidates cached lines — the
                    # inter-kernel locality loss the paper observes.
                    for sm in self.sms:
                        sm.l1.flush()
                        sm.const_cache.flush()
                        sm.tex_cache.flush()
                    self.memory.flush()
            elif isinstance(op, HostLaunch):
                self.stats.kernel_launches += 1
                self.stats.launch_overhead_cycles += config.host_launch_cycles
                # Cores wait through launch setup: the paper's
                # "functional done" stall.
                self.stats.add_stall(
                    StallReason.FUNCTIONAL_DONE, config.host_launch_cycles
                )
                if tel is not None:
                    tel.stall(self.host_time,
                              StallReason.FUNCTIONAL_DONE.value,
                              config.host_launch_cycles)
                self.host_time += config.host_launch_cycles
                grid = self.run_grid(op.launch)
                self.stats.kernel_cycles += int(
                    grid.completion_time - grid.available_time
                )
                self.host_time = max(self.host_time, grid.completion_time)
                if self.launch_observer is not None:
                    self.launch_observer(op.launch, grid)
            else:  # pragma: no cover - HostOp union is closed
                raise TypeError(f"unknown host op {op!r}")
        return self.finalize()

    def _release_cycles(self) -> None:
        """Break the reference cycles a finished run still holds — each
        L1's writeback sink points back at its SM, CTAs left
        resident at their warps — so the run is freed as soon as its
        last reference goes."""
        for sm in self.sms:
            sm.l1.writeback_sink = None
            for cta in sm.ctas:
                cta.warps = []

    def finalize(self) -> RunStats:
        """Aggregate per-component counters into the run stats."""
        if not self._finalized:
            self._finalized = True
            self._fold_stalls()
            # Ahead of everything derived from the stats (the telemetry
            # metadata), so the run reports its true counts.
            if self._counts is not None:
                self._counts.merge_into(self.stats)
            self._release_cycles()
            for sm in self.sms:
                self.stats.l1.merge(sm.l1.stats)
                self.stats.const_cache.merge(sm.const_cache.stats)
                if sm.issued_instructions:
                    self.stats.sm_instructions[sm.sm_id] = (
                        self.stats.sm_instructions.get(sm.sm_id, 0)
                        + sm.issued_instructions
                    )
            for bank in self.memory.l2_banks:
                self.stats.l2.merge(bank.stats)
            for channel in self.memory.dram:
                self.stats.dram.merge(channel.stats)
            self.stats.noc.merge(self.memory.network.stats)
            self.stats.cycles = max(self.stats.kernel_cycles, 1)
            if self.telemetry is not None:
                self.telemetry.finalize(self.stats)
                self.stats.telemetry = self.telemetry.summary()
        return self.stats
