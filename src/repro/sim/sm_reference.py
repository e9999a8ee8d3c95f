"""Scan-per-decision reference SM (pre-event-core issue loop).

:class:`ReferenceSM` preserves the original
:class:`~repro.sim.sm.StreamingMultiprocessor` algorithms verbatim:
every scheduling decision rescans all resident warps for readiness, and
every stall rescans them for attribution and the next wake time.  It is
selected with ``GPUConfig(event_core=False)`` and exists as the oracle
the event core is checked against:

- the golden bit-identity regression test runs every benchmark through
  both cores and requires field-for-field identical :class:`RunStats`
  (``tests/sim/test_event_core_golden.py``);
- the telemetry differential suite requires identical interval series
  (``tests/sim/test_telemetry_differential.py``).

Keep this file frozen unless the *timing model* changes — performance
work belongs in :mod:`repro.sim.sm`.
"""

from __future__ import annotations

from repro.sim.scheduler import TwoLevel
from repro.sim.sm import (
    _CONST,
    _CTRL,
    _DEVSYNC,
    _EXIT,
    _FP,
    _INT,
    _LAUNCH,
    _LDST,
    _PARAM,
    _R_CONTROL,
    _R_FUNCTIONAL,
    _R_IDLE,
    _R_MEMORY,
    _R_SYNC,
    _SFU,
    _SHARED,
    _SYNC,
    _TEX,
    StreamingMultiprocessor,
)
from repro.sim.stats import StallReason
from repro.sim.warp import CTA, Grid, NEVER, Warp


class ReferenceSM(StreamingMultiprocessor):
    """One GPU core, scan-per-decision (the original issue loop)."""

    def __init__(self, sm_id, config, stats):
        super().__init__(sm_id, config, stats)
        # The rewritten TwoLevel scheduler reads ``warp.in_ready``; the
        # reference core has no ready list, so it refreshes the flags
        # during its per-decision scan — only when the policy needs
        # them, to keep the baseline benchmark honest for lrr/gto/old.
        self._flags_needed = isinstance(self.scheduler, TwoLevel)

    # -- CTA admission ------------------------------------------------------
    def admit_cta(self, grid: Grid, start_time: float) -> CTA:
        """Instantiate and adopt the next CTA of ``grid``."""
        kernel = grid.kernel
        start = max(self.time, start_time)
        cta = grid.make_cta(start)
        self.ctas.append(cta)
        self.warps.extend(cta.warps)
        self.used_threads += kernel.cta_threads
        self.used_regs += kernel.regs_per_thread * kernel.cta_threads
        self.used_smem += kernel.smem_per_cta
        return cta

    # -- issue loop -----------------------------------------------------------
    def step(self, gpu, now: float, seq: int = -1) -> None:
        """One scheduling decision at time ``max(self.time, now)``.

        ``gpu`` is the owning :class:`~repro.sim.gpu.GPUSimulator`,
        used for memory access, device launches and completion hooks.
        """
        if now > self.time:
            self.time = now
        warps = self.warps
        if not warps:
            return

        t = self.time
        if self._flags_needed:
            ready = []
            for w in warps:
                if w.next_ready <= t:
                    w.in_ready = True
                    ready.append(w)
                else:
                    w.in_ready = False
        else:
            ready = [w for w in warps if w.next_ready <= t]
        if not ready:
            self._account_stall(t)
            return

        warp = self.scheduler.select(ready)
        try:
            instr = next(warp.trace)
        except StopIteration:  # pragma: no cover - traces must end with EXIT
            raise RuntimeError(
                f"trace of kernel {warp.cta.grid.kernel.name} ended "
                "without an EXIT instruction"
            ) from None
        self._execute(gpu, warp, instr, t)

    def _account_stall(self, t: float) -> None:
        """No warp ready: attribute the gap and jump to the next wake."""
        wake = NEVER
        n_mem = n_ctrl = n_sync = n_func = n_idle = 0
        for warp in self.warps:
            if warp.next_ready < wake:
                wake = warp.next_ready
            reason = warp.block_reason
            if reason is _R_MEMORY:
                n_mem += 1
            elif reason is _R_CONTROL:
                n_ctrl += 1
            elif reason is _R_SYNC:
                n_sync += 1
            elif reason is _R_FUNCTIONAL:
                n_func += 1
            else:
                n_idle += 1
        # Ties break in a fixed priority order: memory is the paper's
        # headline cause, so it wins ties.
        best, dominant = n_mem, _R_MEMORY
        if n_ctrl > best:
            best, dominant = n_ctrl, _R_CONTROL
        if n_sync > best:
            best, dominant = n_sync, _R_SYNC
        if n_func > best:
            best, dominant = n_func, _R_FUNCTIONAL
        if n_idle > best:
            dominant = _R_IDLE
        if wake == NEVER:
            # Every warp waits on an external event (device sync /
            # barrier release from another path).  Go dormant; the GPU
            # attributes the dormant period when it wakes us.
            self.dormant_since = t
            self.dormant_reason = dominant
            return
        gap = int(wake - t)
        self.stats.add_stall(dominant, gap)
        if self._tel is not None:
            self._tel.stall(t, dominant._value_, gap)
        self.time = wake

    def wake_warp(self, warp: Warp, t: float) -> None:
        """An external event (CDP child completion) unblocks ``warp``."""
        warp.next_ready = t
        warp.block_reason = None

    # -- instruction semantics -------------------------------------------------
    def _execute(self, gpu, warp: Warp, instr, t: float) -> None:
        config = self.config
        op = instr.op
        repeat = instr.repeat
        self.issued_instructions += repeat
        if self._tel is not None:
            # Same attribution contract as the event core: the issue
            # decision lands at t and repeat blocks cover [t, t+repeat).
            self._tel.issue(t, instr.active_lanes, repeat)
        warp.block_reason = None

        if op is _INT or op is _FP or op is _SFU:
            if op is _INT:
                latency = config.int_latency
            elif op is _FP:
                latency = config.fp_latency
            else:
                latency = config.sfu_latency
            # A repeat block monopolizes the issue port for `repeat`
            # cycles; the dependent-use latency applies after the last.
            warp.next_ready = t + repeat - 1 + latency
            self.time = t + repeat
            return

        self.time = t + 1
        if op is _LDST:
            self._execute_memory(gpu, warp, instr, t)
        elif op is _CTRL:
            warp.next_ready = t + config.branch_latency
            warp.block_reason = StallReason.CONTROL
        elif op is _SYNC:
            self._execute_barrier(warp, t)
        elif op is _DEVSYNC:
            if warp.pending_children > 0:
                # Waiting for child kernels to be set up, run, and
                # drain — the CDP face of "functional done" (Fig 5
                # shows CDP and non-CDP breakdowns staying similar).
                warp.waiting_device_sync = True
                warp.next_ready = NEVER
                warp.block_reason = StallReason.FUNCTIONAL_DONE
            else:
                warp.next_ready = t + 1
        elif op is _LAUNCH:
            gpu.device_launch(self, warp, instr.child, t)
            warp.next_ready = t + config.cdp_launch_cycles
            warp.block_reason = StallReason.FUNCTIONAL_DONE
        elif op is _EXIT:
            self._execute_exit(gpu, warp, t)
        else:  # pragma: no cover - enum is closed
            raise AssertionError(f"unhandled op {op}")

    def _execute_memory(self, gpu, warp: Warp, instr, t: float) -> None:
        config = self.config
        mem = instr.mem
        space = mem.space

        if space is _SHARED:
            # On-chip scratchpad: unaffected by the Fig 15 perfect
            # memory-system experiment.
            warp.next_ready = t + config.shared_latency
            warp.block_reason = StallReason.MEMORY
            return

        if config.perfect_memory:
            # Zero-latency memory system: every access behaves like an
            # L1 hit (one transaction retired per port cycle).
            warp.next_ready = (
                t + config.l1.hit_latency + max(0, len(mem.lines) - 1)
            )
            return
        if space is _PARAM:
            # Parameter reads hit the constant path's dedicated storage.
            warp.next_ready = t + config.const_cache.hit_latency
            return

        port = 1 if config.l1_port_serialization else 0
        if space is _CONST or space is _TEX:
            cache = self.const_cache if space is _CONST else self.tex_cache
            completion = t
            # The cache port retires one transaction per cycle.
            for i, line in enumerate(mem.lines):
                issue = t + i * port
                if cache.access(line, store=mem.store):
                    completion = max(completion, issue + cache.config.hit_latency)
                else:
                    completion = max(
                        completion, gpu.memory.line_request(
                            self.sm_id, line, mem.store, issue
                        )
                    )
            warp.next_ready = completion
            warp.block_reason = StallReason.MEMORY
            return

        # GLOBAL / LOCAL through the L1, one transaction per cycle —
        # an uncoalesced access pays for all 32 of its transactions.
        # Stores are write-back write-validate: they allocate dirty in
        # the L1 without fetching; dirty evictions flow to L2/DRAM via
        # the writeback sink.
        completion = t
        l1_access = self.l1.access
        line_request = gpu.memory.line_request
        hit_latency = config.l1.hit_latency
        store = mem.store
        sm_id = self.sm_id
        tel = self._tel
        if tel is not None:
            _ls = self.l1.stats
            _a0 = _ls.accesses
            _m0 = _ls.misses
            _la0 = _ls.load_accesses
            _lm0 = _ls.load_misses
        for i, line in enumerate(mem.lines):
            issue = t + i * port
            hit = l1_access(line, store=store)
            if store or hit:
                done = issue + hit_latency
            else:
                done = line_request(sm_id, line, False, issue)
            if done > completion:
                completion = done
        if tel is not None:
            tel.cache(
                "l1",
                t,
                _ls.accesses - _a0,
                _ls.misses - _m0,
                _ls.load_accesses - _la0,
                _ls.load_misses - _lm0,
            )
        warp.next_ready = completion
        if completion - t > hit_latency:
            warp.block_reason = StallReason.MEMORY

    def _execute_barrier(self, warp: Warp, t: float) -> None:
        cta = warp.cta
        cta.barrier_arrived += 1
        if cta.barrier_ready():
            # Last arrival releases everyone.
            released = 0
            for peer in cta.warps:
                if not peer.exited:
                    released += 1
                    peer.next_ready = t + 1
                    peer.block_reason = None
            cta.barrier_arrived = 0
            if self._tel is not None:
                self._tel.event(
                    "barrier", "release", t, sm=self.sm_id, warps=released
                )
        else:
            warp.next_ready = NEVER
            warp.block_reason = StallReason.SYNC

    def _execute_exit(self, gpu, warp: Warp, t: float) -> None:
        warp.exited = True
        self.warps.remove(warp)
        self.scheduler.retired(warp)
        cta = warp.cta
        if cta.live_warps == 0:
            self._release_cta(cta)
            # Same GPU-side bookkeeping hook as the event core.
            gpu.cta_finished(self, cta.grid, t, cta)
        elif cta.barrier_arrived and cta.barrier_ready():
            # An exiting warp can satisfy a barrier its peers wait on.
            released = 0
            for peer in cta.warps:
                if not peer.exited and peer.block_reason is StallReason.SYNC:
                    released += 1
                    peer.next_ready = t + 1
                    peer.block_reason = None
            cta.barrier_arrived = 0
            if self._tel is not None:
                self._tel.event(
                    "barrier", "release", t, sm=self.sm_id, warps=released
                )


__all__ = ["ReferenceSM"]
