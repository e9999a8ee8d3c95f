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

from repro.sim.config import GPUConfig
from repro.sim.launch import Application, HostLaunch, HostMemcpy, KernelLaunch
from repro.sim.memory import MemorySubsystem
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import RunStats, StallReason
from repro.sim.warp import CTA, Grid, Warp


class SimulationDeadlock(RuntimeError):
    """The device has pending work but no SM can ever make progress."""


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
        for sm in self.sms:
            sm._tel = telemetry
            # Dirty L1 evictions flow to L2/DRAM at the SM's local time.
            sm.l1.writeback_sink = (
                lambda line, _sm=sm: self.memory.writeback(
                    _sm.sm_id, line, _sm.time
                )
            )
        self._heap: list = []
        self._heap_seq = itertools.count()
        self._pending_grids: list[Grid] = []
        self._active_grids = 0
        self.host_time = 0.0
        self._finalized = False
        #: pluggable grid driver (the window-barrier parallel core
        #: installs itself here — see repro.sim.parallel_proc); ``None``
        #: selects the sequential ``_drive_grid`` loop.
        self._grid_driver = None
        #: callbacks run at the top of ``finalize`` (the parallel core
        #: merges per-shard stats/telemetry back into this instance).
        self._finalize_hooks: list = []
        #: callbacks run after a host-side cache flush (the shard
        #: driver forwards the flush to its forked workers,
        #: whose SM caches hold the authoritative lines).
        self._flush_hooks: list = []
        #: SM-local run-ahead (see repro.sim.sm._run_local): enabled in
        #: ``run_application`` for applications that declare they can
        #: never device-launch.  Off by default so direct ``run_grid``
        #: or ``_run_until`` callers get the one-decision-per-pop
        #: schedule without needing any declaration.
        self._runahead = False
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
        """Queue a grid and place as many CTAs as currently fit."""
        self._pending_grids.append(grid)
        self._active_grids += 1
        self._dispatch_pending()

    def _dispatch_pending(self) -> None:
        # Fully-dispatched grids are dropped by rebuilding the pending
        # list once, not with ``list.remove`` inside the scan — many
        # small grids (CDP children especially) made that quadratic.
        pending = self._pending_grids
        if not pending:
            return
        remaining: list[Grid] = []
        for grid in pending:
            while not grid.dispatch_done:
                # Least-loaded placement keeps concurrent small grids
                # (CDP children especially) spread across the machine.
                candidates = [
                    sm for sm in self.sms if sm.can_admit(grid.kernel)
                ]
                if not candidates:
                    break
                sm = min(candidates, key=lambda s: (s.used_threads, s.sm_id))
                cta = sm.admit_cta(grid, grid.available_time)
                cta.sm = sm
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

        Grid bookkeeping lives here (not in the SM) so the parallel
        core can stage the event at a shard boundary and replay it in
        global ``(time, sm_id, seq)`` order at the window barrier.
        """
        if cta is not None and self.cta_observer is not None:
            self.cta_observer(cta, t)
        grid.remaining_ctas -= 1
        if grid.finished:
            grid.completion_time = t
            self.on_grid_finished(grid, t)
        self.refill_sm(sm, t)

    def device_launch(
        self,
        sm: StreamingMultiprocessor,
        warp: Warp,
        spec: KernelLaunch,
        t: float,
    ) -> None:
        """CDP: a warp on ``sm`` launches ``spec`` as a child grid."""
        if self._runahead:
            # Run-ahead is only sound when no kernel can ever device-
            # launch (child dispatch and parent wake-ups mutate other
            # SMs at arbitrary times).  Fail loudly rather than let a
            # mismarked application diverge silently.
            raise RuntimeError(
                f"application declared may_device_launch=False but "
                f"kernel {spec.kernel.name!r} issued a device launch; "
                "fix the application's may_device_launch flag"
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
            sm = min(self.sms, key=lambda s: (s.used_threads, s.sm_id))
            start = max(sm.time, grid.available_time)
            cta = sm.admit_cta(grid, start)
            cta.sm = sm
            if grid.dispatch_done:
                # Drop by index: ``list.remove`` rescans from the front
                # and turned deep CDP backlogs quadratic.
                del self._pending_grids[index]
            self._wake_sm(sm, start)
            return True
        return False

    def _run_until(self, predicate) -> None:
        heap = self._heap
        heappop, heappush = heapq.heappop, heapq.heappush
        while not predicate():
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
                heappush(heap, (sm.time, sm.sm_id, next(self._heap_seq), sm))
                continue
            sm.step(self, t, s)
            # While this SM is strictly next anyway, keep stepping it
            # without the push/pop round trip.  Ties defer to the heap,
            # whose sequence numbers keep the original FIFO order, so
            # the schedule is identical to the push-then-pop loop.
            while sm.has_resident_work and sm.dormant_since is None:
                if sm._deferred is not None:
                    # The SM queued its next (nonlocal) decision under
                    # its own heap entry; don't push a duplicate.
                    break
                if heap and heap[0][0] <= sm.time:
                    heappush(heap, (sm.time, sm.sm_id, next(self._heap_seq), sm))
                    break
                if predicate():
                    # Re-queue before returning: callers rely on every
                    # live SM staying in the heap between run calls.
                    heappush(heap, (sm.time, sm.sm_id, next(self._heap_seq), sm))
                    return
                sm.step(self, sm.time)

    def _drive_grid(self, grid: Grid) -> None:
        """Run the event loop until ``grid`` completes.

        Same schedule as ``self._run_until(lambda: grid.finished)`` —
        which remains the general API — but with the predicate inlined
        as a ``remaining_ctas`` read: the completion check runs once
        per scheduling decision, so the lambda + property dispatch was
        measurable across multi-million-decision runs.
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
                # Stale entry — re-queue at the SM's real time (see
                # ``_run_until`` for the canonical-order rationale).
                heappush(heap, (sm.time, sm.sm_id, next(heap_seq), sm))
                continue
            sm.step(self, t, s)
            while sm.has_resident_work and sm.dormant_since is None:
                if sm._deferred is not None:
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
        if self._grid_driver is not None:
            self._grid_driver(grid)
        else:
            self._drive_grid(grid)
        return grid

    # -- host interface ----------------------------------------------------
    def _memcpy_cycles(self, nbytes: int) -> int:
        pci = self.config.pci
        return pci.latency_cycles + math.ceil(nbytes / pci.bytes_per_cycle)

    def run_application(self, app: Application) -> RunStats:
        """Execute an application's host program to completion."""
        if self._finalized:
            raise RuntimeError("simulator instances are single use")
        if self.config.sample_fraction > 0:
            raise RuntimeError(
                "config requests sampled estimation "
                f"(sample_fraction={self.config.sample_fraction}); use "
                "repro.sim.sampled.estimate_application, not "
                "run_application"
            )
        # SM-local run-ahead is only sound when no kernel can ever
        # device-launch; applications opt in by declaring it (the
        # Application default is the conservative True).
        self._runahead = self.config.event_core and not getattr(
            app, "may_device_launch", True
        )
        config = self.config
        if config.parallel_shards > 1 and self._grid_driver is None:
            # Window-barrier parallel core (lazy import: sequential
            # runs must not pay for it): forked shard workers when the
            # application is eligible, else the sequential loop below.
            from repro.sim.parallel_proc import try_install_process_driver

            app = try_install_process_driver(self, app) or app
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
                    for hook in self._flush_hooks:
                        hook()
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

    def finalize(self) -> RunStats:
        """Aggregate per-component counters into the run stats."""
        if not self._finalized:
            self._finalized = True
            for hook in self._finalize_hooks:
                hook()
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
