"""Dynamic execution state: warps, CTAs, grids."""

from __future__ import annotations

import itertools
from typing import Optional

from repro.isa.instructions import WarpInstruction
from repro.sim.kernel import KernelProgram
from repro.sim.stats import StallReason

#: Wake time of a warp blocked on an event (barrier, child completion).
NEVER = float("inf")

_warp_counter = itertools.count()


class Warp:
    """One resident warp: its materialized trace plus scheduling state."""

    __slots__ = (
        "trace",
        "ops",
        "cta",
        "warp_id",
        "age",
        "next_ready",
        "block_reason",
        "exited",
        "pending_children",
        "waiting_device_sync",
        "in_ready",
    )

    def __init__(self, ops: list[WarpInstruction], cta: "CTA", warp_id: int):
        #: the materialized instruction list (trace replay hands the
        #: same list to every sweep point) and the issue loop's iterator
        #: over it; the GPU's lookahead horizon reads the warp's
        #: position from the two (``repro.sim.horizon``)
        self.ops = ops
        self.trace = iter(ops)
        self.cta = cta
        self.warp_id = warp_id
        self.age = next(_warp_counter)  # global issue-order age for GTO/OLD
        self.next_ready: float = 0.0
        self.block_reason: Optional[StallReason] = None
        self.exited = False
        self.pending_children = 0
        self.waiting_device_sync = False
        #: membership flag for the owning SM's ready list (see
        #: repro.sim.sm); schedulers read it for O(1) ready checks
        self.in_ready = False


class CTA:
    """A cooperative thread array resident on one SM.

    ``live_warps`` counts the warps that have not exited: set when
    :meth:`Grid.make_cta` builds the warps, decremented by the owning
    SM at each EXIT, so an exit or a barrier arrival reads it in O(1).
    """

    __slots__ = (
        "cta_id", "grid", "warps", "live_warps", "barrier_arrived", "sm",
        "start_time",
    )

    def __init__(self, cta_id: int, grid: "Grid"):
        self.cta_id = cta_id
        self.grid = grid
        self.warps: list[Warp] = []
        self.live_warps = 0
        self.barrier_arrived = 0
        self.sm = None  # set on admission by the owning SM
        self.start_time: float = 0.0  # dispatch time, set in make_cta

    def barrier_ready(self) -> bool:
        """True when every live warp has arrived at the barrier."""
        return self.barrier_arrived >= self.live_warps


class Grid:
    """One kernel launch being executed (host- or device-initiated)."""

    _seq = itertools.count()

    def __init__(
        self,
        kernel: KernelProgram,
        num_ctas: int,
        args: dict | None = None,
        available_time: float = 0.0,
        parent_warp: Warp | None = None,
    ):
        if num_ctas <= 0:
            raise ValueError("grid must have at least one CTA")
        self.kernel = kernel
        self.num_ctas = num_ctas
        self.args = args or {}
        self.available_time = available_time
        self.parent_warp = parent_warp
        #: the launch's warp traces, one row per CTA
        self.rows = kernel.cta_rows(num_ctas, self.args)
        self.seq = next(Grid._seq)
        self.next_cta = 0
        self.remaining_ctas = num_ctas
        self.start_time: float | None = None
        self.completion_time: float | None = None

    @property
    def dispatch_done(self) -> bool:
        return self.next_cta >= self.num_ctas

    @property
    def finished(self) -> bool:
        return self.remaining_ctas == 0

    def make_cta(self, sm_time: float) -> CTA:
        """Instantiate the next CTA from its row of ``rows``.

        ``rows`` is the kernel's :meth:`~repro.sim.kernel.KernelProgram.cta_rows`
        table for this launch, fetched once per grid: a replayed
        kernel's rows were materialized when its application was
        built, so placing a CTA builds its warps and nothing else.
        """
        if self.dispatch_done:
            raise RuntimeError("all CTAs already dispatched")
        cta = CTA(self.next_cta, self)
        cta.start_time = sm_time
        row = self.rows[self.next_cta]
        self.next_cta += 1
        if self.start_time is None:
            self.start_time = sm_time
        warps = cta.warps
        for warp_id, ops in enumerate(row):
            warp = Warp(ops, cta, warp_id)
            warp.next_ready = sm_time
            warps.append(warp)
        cta.live_warps = len(warps)
        return cta
