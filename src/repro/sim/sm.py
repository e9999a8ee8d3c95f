"""Streaming multiprocessor: issue loop, hazards, stall attribution.

Each SM owns a private L1, constant and texture cache, a warp
scheduler, and a set of resident CTAs.  ``step`` is the issue loop:
it makes a burst of scheduling decisions, each one an issue from a
ready warp or a stall accounted up to the next wake-up time.

This is the **event core**: instead of rescanning every resident warp
per decision, the SM maintains

- ``_ready`` — the warps able to issue right now, kept in residence
  order (ascending ``age``, which is exactly the order the original
  per-decision scan of ``self.warps`` produced, so scheduler decisions
  are unchanged);
- ``_wakes`` — a min-heap of ``(next_ready, seq, warp)`` wake events
  for blocked warps with a known wake time (warps parked on an
  external event — barrier, device sync — are in neither structure);
- ``_reason_counts`` — resident warps per ``block_reason``, so stall
  attribution is O(1) instead of a scan.

Both structures are updated at the points where ``next_ready`` /
``block_reason`` change: ``_execute``, barrier release, CDP child
completion (``wake_warp``), and exit.  There is one issue loop for
every application, with two rules split by the GPU's lookahead
horizon (the earliest time a device launch or a grid completion can
happen, from the warps' positions in their traces): below it,
*run-ahead* defers the first decision that touches shared state to its
global heap slot (or executes it inline once that slot has come); at
or above it, *gated* executes every decision
inline but stops before any decision the global heap would order
elsewhere, and after any EXIT.  Either way a burst makes exactly the
choices the one-decision-per-pop schedule would — ALU repeat blocks in
closed form, one heap call per blocked warp.  See DESIGN.md ("event core")
for the invariants and per-decision costs; the scan-per-decision
original lives on as :class:`repro.sim.sm_reference.ReferenceSM` and
the two are locked bit-identical by
``tests/sim/test_event_core_golden.py``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush, heappushpop
from operator import attrgetter

from repro.isa.instructions import (
    K_CTRL, K_DEVSYNC, K_EXIT, K_LAUNCH, K_LDST, K_SHARED, K_SYNC,
    MemSpace, OpClass,
)
from repro.sim.cache import Cache
from repro.sim.config import GPUConfig
from repro.sim.kernel import KernelProgram
from repro.sim.scheduler import build_scheduler
from repro.sim.stats import RunStats, StallReason
from repro.sim.warp import CTA, Grid, NEVER, Warp

# Enum aliases for ``is`` tests without attribute lookups (the issue
# loop dispatches on ``WarpInstruction.kind``; the reference core
# imports the op aliases).
_INT = OpClass.INT
_FP = OpClass.FP
_SFU = OpClass.SFU
_LDST = OpClass.LDST
_CTRL = OpClass.CTRL
_SYNC = OpClass.SYNC
_DEVSYNC = OpClass.DEVSYNC
_LAUNCH = OpClass.LAUNCH
_EXIT = OpClass.EXIT
_SHARED = MemSpace.SHARED
_PARAM = MemSpace.PARAM
_CONST = MemSpace.CONST
_TEX = MemSpace.TEX
_R_MEMORY = StallReason.MEMORY
_R_CONTROL = StallReason.CONTROL
_R_SYNC = StallReason.SYNC
_R_FUNCTIONAL = StallReason.FUNCTIONAL_DONE
_R_IDLE = StallReason.IDLE
#: the stall reasons in ``_stall``'s tie-break order; the stall
#: accumulator (``_stall_cycles``) is indexed the same way
_STALL_ORDER = (_R_MEMORY, _R_CONTROL, _R_SYNC, _R_FUNCTIONAL, _R_IDLE)
_STALL_KEYS = tuple(reason._value_ for reason in _STALL_ORDER)

_AGE = attrgetter("age")


class StreamingMultiprocessor:
    """One GPU core (event-maintained issue loop)."""

    def __init__(self, sm_id: int, config: GPUConfig, stats: RunStats):
        self.sm_id = sm_id
        self.config = config
        self.stats = stats
        self.time: float = 0.0
        self.l1 = Cache(config.l1, name=f"sm{sm_id}.l1")
        self.const_cache = Cache(config.const_cache, name=f"sm{sm_id}.const")
        self.tex_cache = Cache(config.tex_cache, name=f"sm{sm_id}.tex")
        self.scheduler = build_scheduler(config.scheduler)
        self.ctas: list[CTA] = []
        #: warps visible to the scheduler; exited warps are removed
        #: eagerly.  Residence order is ascending ``age`` (CTAs only
        #: ever append warps), which the ready list relies on.
        self.warps: list[Warp] = []
        # Resource accounting for CTA admission.
        self.used_threads = 0
        self.used_regs = 0
        self.used_smem = 0
        #: dynamic instructions issued here; folded into
        #: ``stats.sm_instructions`` at finalize (cheaper than a dict
        #: update per instruction)
        self.issued_instructions = 0
        #: time-resolved sampler (set by the owning GPUSimulator; None
        #: when telemetry is off — every hook is a local None check)
        self._tel = None
        # Heap bookkeeping (owned by the GPU).
        self.in_heap = False
        self.dormant_since: float | None = None
        self.dormant_reason: StallReason | None = None
        # -- event-core state (see module docstring) --
        self._ready: list[Warp] = []
        self._wakes: list = []
        #: a selected-but-not-executed nonlocal decision ``(warp,
        #: instr)``: run-ahead stops *before* ops that touch shared
        #: state (L2/NoC/DRAM, grid bookkeeping) and re-queues itself
        #: so they execute in global (time, seq) order.
        self._deferred: tuple | None = None
        #: heap sequence number of the entry this SM pushed for its
        #: deferred decision; the decision executes only when exactly
        #: that entry pops, so FIFO tie-breaking matches the
        #: one-decision-per-pop schedule.
        self._deferred_seq = -1
        self._reason_counts: dict = {
            None: 0,
            _R_MEMORY: 0,
            _R_CONTROL: 0,
            _R_SYNC: 0,
            _R_FUNCTIONAL: 0,
        }
        #: stall cycles charged by ``_stall`` per reason (``_STALL_ORDER``
        #: index) since the last fold; the GPU shares one list among its
        #: SMs and folds it (``GPUSimulator._fold_stalls``)
        self._stall_cycles = [0] * len(_STALL_ORDER)
        #: ALU latency by dispatch code (``K_INT``, ``K_FP``, ``K_SFU``)
        self._alu_latency = (
            config.int_latency, config.fp_latency, config.sfu_latency
        )
        #: the issue loop's per-SM constants, unpacked once per ``step``
        self._loop = (
            self._ready, self._wakes, self._reason_counts, self.scheduler,
            self.const_cache, self.tex_cache, self.l1, self._alu_latency,
            config.shared_latency, config.perfect_memory,
        )

    # -- CTA admission ------------------------------------------------------
    def can_admit(self, kernel: KernelProgram) -> bool:
        """Would one more CTA of ``kernel`` fit right now?"""
        config = self.config
        if len(self.ctas) >= config.max_ctas_per_sm:
            return False
        if self.used_threads + kernel.cta_threads > config.max_threads_per_sm:
            return False
        regs = kernel.regs_per_thread * kernel.cta_threads
        if self.used_regs + regs > config.registers_per_sm:
            return False
        if self.used_smem + kernel.smem_per_cta > config.shared_mem_per_sm:
            return False
        return True

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
        # Fold the new warps into the event-core structures.
        self._reason_counts[None] += len(cta.warps)
        t = self.time
        ready = self._ready
        wakes = self._wakes
        for warp in cta.warps:
            if warp.next_ready <= t:
                warp.in_ready = True
                insort(ready, warp, key=_AGE)
            else:
                heappush(wakes, (warp.next_ready, warp.age, warp))
        return cta

    def _release_cta(self, cta: CTA) -> None:
        kernel = cta.grid.kernel
        self.ctas.remove(cta)
        self.warps = [w for w in self.warps if w.cta is not cta]
        self.used_threads -= kernel.cta_threads
        self.used_regs -= kernel.regs_per_thread * kernel.cta_threads
        self.used_smem -= kernel.smem_per_cta

    # -- issue loop -----------------------------------------------------------
    def step(self, gpu, now: float, seq: int = -1) -> None:
        """The issue loop: a burst of scheduling decisions from
        ``max(self.time, now)`` on, each the one the
        one-decision-per-pop schedule would make.

        ``gpu`` is the owning :class:`~repro.sim.gpu.GPUSimulator`,
        used for memory access, device launches and completion hooks.
        ``seq`` is the heap sequence number of the popped entry; a
        pending deferred decision executes only when its own entry
        pops (stale wake entries are no-ops until then), and the loop
        follows it.

        Which rule a decision at time ``t`` follows depends on the GPU's
        lookahead horizon ``H`` (``gpu._horizon``), a lower bound on
        the next event that can change another SM's state or end the
        drive: a device launch or a grid completion.  It is ``inf``
        for applications that can never device-launch, recomputed from
        the materialized traces for the others
        (:meth:`~repro.sim.gpu.GPUSimulator.refresh_horizon`), and
        ``-inf`` while a pending grid that can launch waits for a slot:

        - **Run-ahead** (``t < H``).  Below the horizon the only state
          shared between SMs is the memory subsystem (NoC/L2/DRAM)
          plus grid dispatch bookkeeping.  ALU, control, CTA barriers,
          shared/param accesses, perfect-memory accesses, and cache
          accesses whose lines are all resident touch none of it, so
          their interleaving with other SMs is unobservable and this
          SM retires them regardless of the global heap.  The first
          *nonlocal* decision — a cache access that would miss (probed
          side-effect-free via ``contains_all``), or an
          EXIT/LAUNCH/DEVSYNC whose grid bookkeeping must stay globally
          ordered — is left selected-but-unexecuted in ``_deferred``
          and this SM re-queues itself at the decision time; it
          executes when that exact entry pops, giving the same (time,
          seq) order the one-decision-per-pop schedule produces.  Under
          either horizon (finite, or ``inf`` for launch-free
          applications) a nonlocal decision whose slot has come — the
          global heap is empty or its head is strictly later than
          ``t`` — executes inline instead, and an access is probed
          only when an entry is due.
        - **Gated** (``t >= H``).  Every decision executes inline, but
          after the first one the burst stops before any decision at
          time ``t`` while the GPU's heap holds an entry due at ``t`` —
          exactly where the driver's "strictly next" loop would hand
          control elsewhere.  Before stopping it recomputes ``H``, and
          runs ahead again if ``t`` is now below it.  It also returns
          after any EXIT, so the driver's grid-completion check runs
          after the same decision it always did.

        Stopping is identity-safe under both rules: the driver resumes
        from the same state.  An ALU repeat block issues in closed
        form; a warp that blocks with no ready peer pushes its wake and
        pops the next pick in one heap call.
        """
        if now > self.time:
            self.time = now
        # The gate reads the GPU heap's head; under an infinite
        # horizon (launch-free applications) an empty tuple makes every
        # gate check false.  The heap-slot test for a nonlocal decision
        # reads the real heap under either horizon.
        heap = gpu._heap
        gheap = () if gpu._lookahead is None else heap
        deferred = self._deferred
        if deferred is not None:
            if seq != self._deferred_seq:
                # A stale wake entry popped while a nonlocal decision
                # is queued under its own (time, seq): not our turn.
                return
            self._deferred = None
            self._deferred_seq = -1
            warp, instr = deferred
            self._execute(gpu, warp, instr, self.time)
            if not warp.exited:
                self._settle(warp)
            # The deferred decision was this burst's first; the next
            # one is gated if it lies at or above the horizon.
            t = self.time
            if gheap and gheap[0][0] <= t and t >= gpu._horizon \
                    and t >= gpu.refresh_horizon():
                return
        if not self.warps:
            return
        horizon = gpu._horizon
        (ready, wakes, rc, scheduler, const_cache, tex_cache, l1,
         alu_latency, shared_latency, perfect) = self._loop
        stall = self._stall
        tel = self._tel
        issued = 0
        warp = None
        while True:
            t = self.time
            if warp is None:
                # -- pick the warp the one-decision loop would pick ----
                if ready:
                    if wakes and wakes[0][0] <= t:
                        self._drain_wakes(t)
                    if len(ready) == 1:
                        warp = scheduler.select_sole(ready[0])
                    else:
                        warp = scheduler.select(ready)
                    in_list = True
                elif wakes and wakes[0][0] <= t:
                    wake, _, w = heappop(wakes)
                    if w.exited or w.in_ready or w.next_ready != wake:
                        continue
                    if wakes and wakes[0][0] <= t:
                        # Several warps wake together: materialize the
                        # ready list and take the general path above.
                        w.in_ready = True
                        insort(ready, w, key=_AGE)
                        continue
                    # Dominant case: exactly one warp wakes and issues.
                    # It never enters the ready list (its membership is
                    # unobservable until the next decision).
                    warp = scheduler.select_sole(w)
                    in_list = False
                else:
                    # No ready warp and no due wake: attribute the gap
                    # to the next live wake, jump, and pop that entry.
                    wk = NEVER
                    while wakes:
                        head = wakes[0]
                        w = head[2]
                        if w.exited or w.in_ready or w.next_ready != head[0]:
                            heappop(wakes)
                            continue
                        wk = head[0]
                        break
                    stall(t, wk)
                    # Parked dormant, or gated at the post-jump time.
                    if wk == NEVER or (
                        gheap and gheap[0][0] <= wk and wk >= horizon
                        and wk >= (horizon := gpu.refresh_horizon())
                    ):
                        break
                    t = wk
                    heappop(wakes)
                    if wakes and wakes[0][0] <= t:
                        # Several warps wake together: materialize the
                        # ready list and take the general path above.
                        w.in_ready = True
                        insort(ready, w, key=_AGE)
                        continue
                    warp = scheduler.select_sole(w)
                    in_list = False

            try:
                instr = next(warp.trace)
            except StopIteration:  # pragma: no cover - traces end with EXIT
                raise RuntimeError(
                    f"trace of kernel {warp.cta.grid.kernel.name} ended "
                    "without an EXIT instruction"
                ) from None
            kind = instr.kind
            if kind < K_SHARED:
                # ALU: closed-form macro-issue of the whole repeat block.
                repeat = instr.repeat
                issued += repeat
                if tel is not None:
                    tel.issue(t, instr.active_lanes, repeat)
                old = warp.block_reason
                if old is not None:
                    rc[old] -= 1
                    rc[None] += 1
                    warp.block_reason = None
                nr = t + repeat - 1 + alu_latency[kind]
                warp.next_ready = nr
                now = t + repeat
                self.time = now
            elif kind == K_SHARED:
                # Scratchpad: inlined (hot in the shared-tiled kernels),
                # identical to _execute_memory's path.
                issued += 1
                if tel is not None:
                    tel.issue(t, instr.active_lanes, 1)
                now = t + 1
                self.time = now
                nr = t + shared_latency
                warp.next_ready = nr
                old = warp.block_reason
                if old is not _R_MEMORY:
                    rc[old] -= 1
                    rc[_R_MEMORY] += 1
                    warp.block_reason = _R_MEMORY
            else:
                # Below the horizon with a global entry due at ``t``, a
                # nonlocal decision must wait for its heap slot; gated,
                # or with the heap empty or its head strictly later,
                # this is the slot and it executes inline, as the
                # one-decision loop would.  (The test is spelled out
                # twice so CTRL/SYNC decisions never pay for it.)
                if kind == K_LDST:
                    nonlocal_op = False
                    if t < horizon and heap and heap[0][0] <= t:
                        mem = instr.mem
                        space = mem.space
                        if not (space is _PARAM or perfect):
                            if space is _CONST:
                                cache = const_cache
                            elif space is _TEX:
                                cache = tex_cache
                            else:
                                cache = l1
                            # Would miss: shared-state traffic.
                            nonlocal_op = not cache.contains_all(mem.lines)
                else:
                    # EXIT / LAUNCH / DEVSYNC: grid bookkeeping must
                    # stay globally ordered.
                    nonlocal_op = kind >= K_DEVSYNC
                if nonlocal_op:
                    # These decisions execute from the ready list, as
                    # in the one-decision loop.
                    if not in_list:
                        warp.in_ready = True
                        insort(ready, warp, key=_AGE)
                        in_list = True
                    if t < horizon and heap and heap[0][0] <= t:
                        self._defer(gpu, warp, instr, t)
                        break
                self._execute(gpu, warp, instr, t)
                if kind == K_EXIT:
                    break
                nr = warp.next_ready
                now = self.time

            # -- one tail: blocked → push its wake, fused with the next
            # pick when no peer is ready; still ready → (re-)insert ------
            if nr > now:
                if in_list:
                    ready.remove(warp)
                    warp.in_ready = False
                if nr != NEVER:
                    if ready:
                        heappush(wakes, (nr, warp.age, warp))
                    elif nr < horizon:
                        # No ready peer: the next decision belongs to
                        # the earliest live wake, this warp's included.
                        # Push and pop it in one call, attribute the
                        # gap, and take the pick the loop top would.
                        wk, _, w = heappushpop(wakes, (nr, warp.age, warp))
                        while w.exited or w.in_ready or w.next_ready != wk:
                            wk, _, w = heappop(wakes)
                        if wk > now:
                            stall(now, wk)
                            now = wk
                        if wakes and wakes[0][0] <= now:
                            # Several warps wake together: materialize
                            # the ready list and take the general path.
                            w.in_ready = True
                            insort(ready, w, key=_AGE)
                            warp = None
                        else:
                            if w is not warp:  # select_sole is idempotent
                                warp = scheduler.select_sole(w)
                            in_list = False
                        continue
                    elif not (wakes and wakes[0][0] <= nr) and not (
                        gheap and gheap[0][0] <= nr
                        and nr >= (horizon := gpu.refresh_horizon())
                    ):
                        # At or above the horizon, and the warp is
                        # provably the next decision: every queued wake
                        # is later and no global entry gates it.  Fuse
                        # the stall the next pick would attribute and
                        # reissue.
                        stall(now, nr)
                        in_list = False
                        continue
                    else:
                        heappush(wakes, (nr, warp.age, warp))
            elif not in_list:
                warp.in_ready = True
                insort(ready, warp, key=_AGE)
            warp = None
            # At or above the horizon the next decision, at ``now``,
            # belongs to the driver while a global entry is due.
            if gheap and gheap[0][0] <= now and now >= horizon \
                    and now >= (horizon := gpu.refresh_horizon()):
                break
        self.issued_instructions += issued

    def _defer(self, gpu, warp: Warp, instr, t: float) -> None:
        """Queue a selected nonlocal decision at its global heap slot."""
        seq = next(gpu._heap_seq)
        heappush(gpu._heap, (t, self.sm_id, seq, self))
        self._deferred = (warp, instr)
        self._deferred_seq = seq

    def _drain_wakes(self, t: float) -> None:
        """Move every due wake event into the ready list."""
        wakes = self._wakes
        ready = self._ready
        while wakes and wakes[0][0] <= t:
            wake, _, warp = heappop(wakes)
            # Stale entries — the warp exited, was woken earlier through
            # another path, or re-blocked to a different time — are
            # dropped lazily here (see DESIGN.md: they cannot point at a
            # warp that still owns the recorded wake time).
            if warp.exited or warp.in_ready or warp.next_ready != wake:
                continue
            warp.in_ready = True
            insort(ready, warp, key=_AGE)

    def _settle(self, warp: Warp) -> None:
        """Move an issued warp out of the ready list if it blocked."""
        nr = warp.next_ready
        if nr <= self.time:
            return
        ready = self._ready
        del ready[bisect_left(ready, warp.age, key=_AGE)]
        warp.in_ready = False
        if nr != NEVER:
            heappush(self._wakes, (nr, warp.age, warp))

    def _stall(self, t: float, wake: float) -> None:
        """No warp can issue before ``wake``: charge ``[t, wake)`` to
        the dominant stall reason — the one blocking the most resident
        warps — and jump there.

        Ties break in a fixed priority order: memory is the paper's
        headline cause, so it wins ties.  With no pending wake
        (``NEVER``) every warp waits on an external event (device sync,
        or a barrier released from another path): the SM parks dormant
        with the reason *at this decision time*, and the GPU's wake
        charges the whole dormant period in one chunk
        (``wake_accounting``).

        Callers stall forward only and times are whole cycles, so the
        gap goes to the stall accumulator as is.
        """
        rc = self._reason_counts
        best, i = rc[_R_MEMORY], 0  # i indexes _STALL_ORDER
        n = rc[_R_CONTROL]
        if n > best:
            best, i = n, 1
        n = rc[_R_SYNC]
        if n > best:
            best, i = n, 2
        n = rc[_R_FUNCTIONAL]
        if n > best:
            best, i = n, 3
        if rc[None] > best:
            i = 4
        if wake == NEVER:
            self.dormant_since = t
            self.dormant_reason = _STALL_ORDER[i]
            return
        acc = self._stall_cycles
        if not acc[i]:
            # First charge since the last fold: enter the key now, in
            # the order direct charging would have.
            self.stats.stalls.setdefault(_STALL_KEYS[i], 0)
        acc[i] += wake - t
        if self._tel is not None:
            self._tel.stall(t, _STALL_KEYS[i], int(wake - t))
        self.time = wake

    def wake_accounting(self, wake_time: float) -> None:
        """Charge a dormant period that just ended at ``wake_time``."""
        if self.dormant_since is not None:
            gap = int(wake_time - self.dormant_since)
            if gap > 0 and self.dormant_reason is not None and self.warps:
                self.stats.add_stall(self.dormant_reason, gap)
                if self._tel is not None:
                    self._tel.stall(
                        self.dormant_since, self.dormant_reason._value_, gap
                    )
            self.dormant_since = None
            self.dormant_reason = None
        self.time = max(self.time, wake_time)

    def wake_warp(self, warp: Warp, t: float) -> None:
        """An external event (CDP child completion) unblocks ``warp``."""
        reason = warp.block_reason
        if reason is not None:
            rc = self._reason_counts
            rc[reason] -= 1
            rc[None] += 1
            warp.block_reason = None
        warp.next_ready = t
        if not warp.in_ready:
            if t <= self.time:
                warp.in_ready = True
                insort(self._ready, warp, key=_AGE)
            else:
                heappush(self._wakes, (t, warp.age, warp))

    # -- instruction semantics -------------------------------------------------
    def _execute(self, gpu, warp: Warp, instr, t: float) -> None:
        config = self.config
        repeat = instr.repeat
        self.issued_instructions += repeat
        tel = self._tel
        if tel is not None:
            # Issue decision at t; repeat blocks occupy [t, t+repeat).
            tel.issue(t, instr.active_lanes, repeat)
        rc = self._reason_counts
        old = warp.block_reason

        kind = instr.kind
        if kind < K_SHARED:
            # A repeat block monopolizes the issue port for `repeat`
            # cycles; the dependent-use latency applies after the last.
            warp.next_ready = t + repeat - 1 + self._alu_latency[kind]
            self.time = t + repeat
            if old is not None:
                rc[old] -= 1
                rc[None] += 1
                warp.block_reason = None
            return

        self.time = t + 1
        if kind <= K_LDST:
            warp.block_reason = None
            self._execute_memory(gpu, warp, instr, t)
        elif kind == K_CTRL:
            warp.next_ready = t + config.branch_latency
            warp.block_reason = _R_CONTROL
        elif kind == K_SYNC:
            self._execute_barrier(warp, t)
        elif kind == K_DEVSYNC:
            if warp.pending_children > 0:
                # Waiting for child kernels to be set up, run, and
                # drain — the CDP face of "functional done" (Fig 5
                # shows CDP and non-CDP breakdowns staying similar).
                warp.waiting_device_sync = True
                warp.next_ready = NEVER
                warp.block_reason = _R_FUNCTIONAL
            else:
                warp.next_ready = t + 1
                warp.block_reason = None
        elif kind == K_LAUNCH:
            gpu.device_launch(self, warp, instr.child, t)
            warp.next_ready = t + config.cdp_launch_cycles
            warp.block_reason = _R_FUNCTIONAL
        else:  # K_EXIT
            warp.block_reason = None
            rc[old] -= 1  # the warp leaves the resident population
            self._execute_exit(gpu, warp, t)
            return
        new = warp.block_reason
        if new is not old:
            rc[old] -= 1
            rc[new] += 1

    def _execute_memory(self, gpu, warp: Warp, instr, t: float) -> None:
        config = self.config
        mem = instr.mem
        space = mem.space

        if space is _SHARED:
            # On-chip scratchpad: unaffected by the Fig 15 perfect
            # memory-system experiment.
            warp.next_ready = t + config.shared_latency
            warp.block_reason = _R_MEMORY
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
        lines = mem.lines
        n = len(lines)
        store = mem.store
        if space is _CONST or space is _TEX:
            cache = self.const_cache if space is _CONST else self.tex_cache
            hit_latency = cache.config.hit_latency
            # The cache port retires one transaction per cycle.  The
            # all-hit prefix is probed in one call; const/tex caches
            # have no writeback sink, so the misses' L2/DRAM traffic
            # can be batched too (order preserved — see line_requests).
            k = cache.probe_hits(lines, store)
            if k == n:
                completion = t + (n - 1) * port + hit_latency
            else:
                completion = t + (k - 1) * port + hit_latency if k else t
                access = cache.access
                misses: list = []
                for i in range(k, n):
                    line = lines[i]
                    if access(line, store):
                        done = t + i * port + hit_latency
                        if done > completion:
                            completion = done
                    else:
                        misses.append((t + i * port, line))
                if misses:
                    done = gpu.memory.line_requests(self.sm_id, misses, store)
                    if done > completion:
                        completion = done
            warp.next_ready = completion
            warp.block_reason = _R_MEMORY
            return

        # GLOBAL / LOCAL through the L1, one transaction per cycle —
        # an uncoalesced access pays for all 32 of its transactions.
        # Stores are write-back write-validate: they allocate dirty in
        # the L1 without fetching; dirty evictions flow to L2/DRAM via
        # the writeback sink.
        l1 = self.l1
        hit_latency = config.l1.hit_latency
        tel = self._tel
        if tel is not None:
            # L1 samples are delta-captured around the access block
            # (probe_hits and access both bump the counters), all
            # attributed to the decision cycle t.
            _ls = l1.stats
            _a0 = _ls.accesses
            _m0 = _ls.misses
            _la0 = _ls.load_accesses
            _lm0 = _ls.load_misses
        if n == 1:
            # Fast path: coalesced accesses dominate every benchmark.
            line = lines[0]
            hit = l1.access(line, store)
            if store or hit:
                completion = t + hit_latency
            else:
                completion = gpu.memory.line_request(self.sm_id, line, False, t)
        else:
            # The L1's dirty evictions emit writebacks *during* access
            # calls, so only the leading all-hit prefix may batch —
            # the tail must interleave accesses and line requests in
            # the original order.
            k = l1.probe_hits(lines, store)
            if k == n:
                completion = t + (n - 1) * port + hit_latency
            else:
                completion = t + (k - 1) * port + hit_latency if k else t
                l1_access = l1.access
                line_request = gpu.memory.line_request
                sm_id = self.sm_id
                for i in range(k, n):
                    line = lines[i]
                    issue = t + i * port
                    hit = l1_access(line, store)
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
            warp.block_reason = _R_MEMORY

    def _execute_barrier(self, warp: Warp, t: float) -> None:
        cta = warp.cta
        cta.barrier_arrived += 1
        if cta.barrier_ready():
            # Last arrival releases everyone.
            self._release_barrier(cta, t, warp)
        else:
            warp.next_ready = NEVER
            warp.block_reason = _R_SYNC

    def _release_barrier(
        self, cta: CTA, t: float, issuer: Warp | None = None
    ) -> None:
        """Release ``cta``'s barrier at ``t``: every other live warp has
        arrived, so each is blocked on SYNC and leaves the ready list.
        The issuer's own reason transition is accounted by the caller
        (``_execute``); an exiting warp releases with no issuer."""
        rc = self._reason_counts
        ready = self._ready
        nr = t + 1
        released = 0
        for peer in cta.warps:
            if peer is issuer:
                released += 1
                peer.next_ready = nr
                peer.block_reason = None
            elif not peer.exited and peer.block_reason is _R_SYNC:
                released += 1
                peer.next_ready = nr
                peer.block_reason = None
                rc[_R_SYNC] -= 1
                rc[None] += 1
                if not peer.in_ready:
                    peer.in_ready = True
                    insort(ready, peer, key=_AGE)
        cta.barrier_arrived = 0
        if self._tel is not None:
            self._tel.event(
                "barrier", "release", t, sm=self.sm_id, warps=released
            )

    def _execute_exit(self, gpu, warp: Warp, t: float) -> None:
        warp.exited = True
        self.warps.remove(warp)
        # An issuing warp is always in the ready list; take it out.
        ready = self._ready
        del ready[bisect_left(ready, warp.age, key=_AGE)]
        warp.in_ready = False
        self.scheduler.retired(warp)
        cta = warp.cta
        cta.live_warps -= 1
        if cta.live_warps == 0:
            self._release_cta(cta)
            # Grid bookkeeping (retire count, completion, backfill)
            # lives on the GPU.
            gpu.cta_finished(self, cta.grid, t, cta)
        elif cta.barrier_arrived and cta.barrier_ready():
            # An exiting warp can satisfy a barrier its peers wait on.
            self._release_barrier(cta, t)
