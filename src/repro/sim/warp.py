"""Dynamic execution state: warps, CTAs, grids."""

from __future__ import annotations

import itertools
from typing import Optional

from repro.isa.instructions import WarpInstruction
from repro.sim.kernel import KernelProgram, WarpContext
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
    """A cooperative thread array resident on one SM."""

    __slots__ = (
        "cta_id", "grid", "warps", "barrier_arrived", "sm", "start_time"
    )

    def __init__(self, cta_id: int, grid: "Grid"):
        self.cta_id = cta_id
        self.grid = grid
        self.warps: list[Warp] = []
        self.barrier_arrived = 0
        self.sm = None  # set on admission by the owning SM
        self.start_time: float = 0.0  # dispatch time, set in make_cta

    @property
    def live_warps(self) -> int:
        return sum(1 for w in self.warps if not w.exited)

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

    def context(self, cta_id: int, warp_id: int) -> WarpContext:
        """The trace generator's identity of one warp of this grid."""
        return WarpContext(
            cta_id=cta_id,
            warp_id=warp_id,
            warps_per_cta=self.kernel.warps_per_cta,
            num_ctas=self.num_ctas,
            args=self.args,
        )

    def make_cta(self, sm_time: float) -> CTA:
        """Instantiate the next CTA with its warps' materialized traces.

        A kernel whose ``warp_trace`` is not a list (a live generator)
        raises ``TypeError``: the simulator runs only materialized
        traces, which :class:`repro.sim.replay.CachedApplication`
        builds.
        """
        if self.dispatch_done:
            raise RuntimeError("all CTAs already dispatched")
        cta = CTA(self.next_cta, self)
        cta.start_time = sm_time
        self.next_cta += 1
        if self.start_time is None:
            self.start_time = sm_time
        kernel = self.kernel
        for warp_id in range(kernel.warps_per_cta):
            ops = kernel.warp_trace(self.context(cta.cta_id, warp_id))
            if ops.__class__ is not list:
                raise TypeError(
                    f"kernel {kernel.name!r} (cta={cta.cta_id}, "
                    f"warp={warp_id}) gave a {type(ops).__name__} trace; "
                    "the simulator runs materialized instruction lists "
                    "(wrap the application in CachedApplication)"
                )
            warp = Warp(ops, cta, warp_id)
            warp.next_ready = sm_time
            cta.warps.append(warp)
        return cta
