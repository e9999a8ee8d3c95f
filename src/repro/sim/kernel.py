"""Kernel programs: the unit the simulator executes.

A :class:`KernelProgram` declares its static resources (threads per
CTA, registers, shared memory, constant footprint — the Table III
properties) and generates a per-warp instruction trace.  Benchmarks in
:mod:`repro.kernels` subclass it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.isa.instructions import WARP_SIZE, WarpInstruction


@dataclass(frozen=True)
class WarpContext:
    """Identity of one warp within a launch, passed to trace generators."""

    cta_id: int
    warp_id: int  # within the CTA
    warps_per_cta: int
    num_ctas: int
    args: dict = field(default_factory=dict)

    @property
    def global_warp(self) -> int:
        """Warp index across the whole grid."""
        return self.cta_id * self.warps_per_cta + self.warp_id


class KernelProgram:
    """Base class for benchmark kernels.

    Parameters mirror Table III plus the per-thread register count and
    per-CTA shared memory the occupancy calculator needs.
    """

    def __init__(
        self,
        name: str,
        cta_threads: int,
        regs_per_thread: int = 32,
        smem_per_cta: int = 0,
        const_bytes: int = 0,
    ):
        if cta_threads <= 0:
            raise ValueError("cta_threads must be positive")
        if cta_threads % WARP_SIZE:
            raise ValueError("cta_threads must be a multiple of the warp size")
        self.name = name
        self.cta_threads = cta_threads
        self.regs_per_thread = regs_per_thread
        self.smem_per_cta = smem_per_cta
        self.const_bytes = const_bytes

    @property
    def warps_per_cta(self) -> int:
        return self.cta_threads // WARP_SIZE

    @property
    def uses_shared_memory(self) -> bool:
        return self.smem_per_cta > 0

    def warp_trace(self, ctx: WarpContext) -> Iterator[WarpInstruction]:
        """Yield the dynamic instructions of one warp.

        Subclasses must end every trace with ``builder.exit()``.
        """
        raise NotImplementedError

    def cta_rows(self, num_ctas: int, args: dict):
        """The warp traces of one launch, indexed by ``cta_id``.

        Row ``cta_id`` lists that CTA's warps' materialized instruction
        lists in warp order; :meth:`repro.sim.warp.Grid.make_cta` reads
        one row per CTA it places.  Every simulated run goes through
        the replay layer, whose kernels override this with rows
        materialized once per launch; the default, which reads each row
        through :meth:`warp_trace` on demand, serves only kernels that
        tests place on a :class:`~repro.sim.warp.Grid` directly.
        """
        return _GeneratedRows(self, num_ctas, args)

    def trace_template(self, ctx: WarpContext):
        """Templating contract for one warp: ``(key, bases)`` or None.

        Warps of this kernel whose ``key`` matches must emit
        structurally identical instruction streams (same ops, masks,
        repeats, memory spaces and per-access line counts, no device
        launches) in which every memory line index is either a
        class-wide constant or ``bases[r] + d`` with the same ``(r,
        d)`` at the same trace position for every member.  The replay
        layer (:mod:`repro.sim.replay`) then runs the generator once
        per class and instantiates other members by address relocation
        — see :mod:`repro.isa.template` for how the contract is probed
        and enforced.

        Return None for warps whose traces are genuinely
        data-dependent (e.g. hash-scattered index walks) or that issue
        device-side launches; they are always generated live.  The
        default opts the whole kernel out.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelProgram {self.name} cta={self.cta_threads}>"


class _GeneratedRows:
    """A launch's CTA rows built through ``warp_trace`` when read.

    The fallback for kernels that tests place on a ``Grid`` directly;
    no simulated run reaches it (``run_application`` wraps every
    application in :class:`repro.sim.replay.CachedApplication`).  A
    trace that is not a list (a live generator) raises ``TypeError``
    by kernel, CTA and warp: the simulator runs only materialized
    traces, which :class:`repro.sim.replay.CachedApplication` builds.
    """

    __slots__ = ("kernel", "num_ctas", "args")

    def __init__(self, kernel: KernelProgram, num_ctas: int, args: dict):
        self.kernel = kernel
        self.num_ctas = num_ctas
        self.args = args

    def __getitem__(self, cta_id: int) -> list:
        kernel = self.kernel
        warps = kernel.warps_per_cta
        row = []
        for warp_id in range(warps):
            ops = kernel.warp_trace(
                WarpContext(cta_id, warp_id, warps, self.num_ctas, self.args)
            )
            if ops.__class__ is not list:
                raise TypeError(
                    f"kernel {kernel.name!r} (cta={cta_id}, "
                    f"warp={warp_id}) gave a {type(ops).__name__} trace; "
                    "the simulator runs materialized instruction lists "
                    "(wrap the application in CachedApplication)"
                )
            row.append(ops)
        return row
