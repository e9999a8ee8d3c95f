"""Trace-building helpers for kernel programs.

A kernel's per-warp trace is a generator of
:class:`~repro.isa.instructions.WarpInstruction`.  The helpers here
construct the common instruction shapes and perform address coalescing
(per-lane addresses -> 128B line sets) so kernel code stays close to
the algorithm it models.

Address-free instructions are interned: :class:`TraceBuilder` returns
one process-wide instance per distinct ALU block ``(op, mask,
repeat)``, control instruction ``(op, mask)`` and shared-memory access
``(mask, store)``, so equal calls from any warp of any kernel yield the
same object.  Instructions are therefore immutable by contract: nothing
may assign to a builder-returned :class:`WarpInstruction` or its
:class:`MemAccess` (relocation and the trace store build fresh objects
instead).  ``launch`` and every addressed load or store are built per
call.
"""

from __future__ import annotations

from repro.isa.instructions import (
    FULL_MASK,
    LINE_BYTES,
    MemAccess,
    MemSpace,
    OpClass,
    WarpInstruction,
)


def lines_for_stride(
    base_byte: int, stride_bytes: int, lanes: int, bytes_per_lane: int = 4
) -> tuple[int, ...]:
    """Coalesce a strided per-lane access into distinct 128B lines.

    Lane ``i`` touches ``[base + i*stride, base + i*stride + bytes_per_lane)``.
    A stride of 4 with 32 lanes coalesces to a single line; a stride of
    128+ produces one transaction per lane — matching the hardware
    coalescer's behaviour.
    """
    if lanes <= 0:
        raise ValueError("lanes must be positive")
    lines: set[int] = set()
    for lane in range(lanes):
        first = base_byte + lane * stride_bytes
        last = first + max(1, bytes_per_lane) - 1
        lines.update(range(first // LINE_BYTES, last // LINE_BYTES + 1))
    return tuple(sorted(lines))


#: The intern table behind :class:`TraceBuilder`'s address-free
#: instructions.  It only ever gains entries (a few dozen per process:
#: one per distinct op/mask/repeat a kernel emits), and a racing miss
#: merely builds an equal instance twice.
_SHARED: dict[tuple, WarpInstruction] = {}


def _shared(key: tuple, op: OpClass, mask: int, repeat: int = 1,
            mem: MemAccess | None = None) -> WarpInstruction:
    """Build, validate and intern the instruction for a missed ``key``."""
    instr = _SHARED[key] = WarpInstruction(op, mask, mem=mem, repeat=repeat)
    return instr


class TraceBuilder:
    """Stateful helper carrying the current active mask.

    Kernels set ``mask`` when modelling divergence (e.g. after a filter
    branch) and every subsequent instruction inherits it.
    """

    def __init__(self, mask: int = FULL_MASK):
        self.mask = mask & FULL_MASK

    def set_lanes(self, lanes: int) -> None:
        """Activate the first ``lanes`` lanes (0 lanes is not issueable)."""
        if not 1 <= lanes <= 32:
            raise ValueError("lanes must be in [1, 32]")
        self.mask = (1 << lanes) - 1

    # -- compute ---------------------------------------------------------
    def _alu(self, op: OpClass, count: int) -> WarpInstruction:
        key = (op, self.mask, count)
        return _SHARED.get(key) or _shared(key, op, self.mask, count)

    def _ctrl(self, op: OpClass) -> WarpInstruction:
        key = (op, self.mask)
        return _SHARED.get(key) or _shared(key, op, self.mask)

    def ints(self, count: int = 1) -> WarpInstruction:
        """``count`` integer ALU instructions."""
        return self._alu(OpClass.INT, count)

    def fps(self, count: int = 1) -> WarpInstruction:
        """``count`` floating-point instructions."""
        return self._alu(OpClass.FP, count)

    def sfu(self, count: int = 1) -> WarpInstruction:
        """``count`` special-function (transcendental) instructions."""
        return self._alu(OpClass.SFU, count)

    def branch(self) -> WarpInstruction:
        """A control instruction (divergence is expressed via ``mask``)."""
        return self._ctrl(OpClass.CTRL)

    # -- memory ----------------------------------------------------------
    def _mem(self, space: MemSpace, lines, store: bool) -> WarpInstruction:
        return WarpInstruction(
            OpClass.LDST,
            self.mask,
            mem=MemAccess(space, tuple(lines), store=store),
        )

    def ld_global(self, lines) -> WarpInstruction:
        return self._mem(MemSpace.GLOBAL, lines, False)

    def st_global(self, lines) -> WarpInstruction:
        return self._mem(MemSpace.GLOBAL, lines, True)

    def ld_local(self, lines) -> WarpInstruction:
        return self._mem(MemSpace.LOCAL, lines, False)

    def st_local(self, lines) -> WarpInstruction:
        return self._mem(MemSpace.LOCAL, lines, True)

    def _smem(self, store: bool) -> WarpInstruction:
        key = (self.mask, store)
        return _SHARED.get(key) or _shared(
            key, OpClass.LDST, self.mask,
            mem=MemAccess(MemSpace.SHARED, (), store=store),
        )

    def ld_shared(self) -> WarpInstruction:
        """Shared-memory load (on-chip: no line addresses needed)."""
        return self._smem(False)

    def st_shared(self) -> WarpInstruction:
        return self._smem(True)

    def ld_const(self, lines) -> WarpInstruction:
        return self._mem(MemSpace.CONST, lines, False)

    def ld_tex(self, lines) -> WarpInstruction:
        return self._mem(MemSpace.TEX, lines, False)

    def ld_param(self, lines) -> WarpInstruction:
        return self._mem(MemSpace.PARAM, lines, False)

    # -- control flow / launch --------------------------------------------
    def barrier(self) -> WarpInstruction:
        """CTA-wide ``__syncthreads()``."""
        return self._ctrl(OpClass.SYNC)

    def device_sync(self) -> WarpInstruction:
        """``cudaDeviceSynchronize()`` in a CDP parent."""
        return self._ctrl(OpClass.DEVSYNC)

    def launch(self, child) -> WarpInstruction:
        """Device-side kernel launch of a :class:`KernelLaunch` spec."""
        return WarpInstruction(OpClass.LAUNCH, self.mask, child=child)

    def exit(self) -> WarpInstruction:
        """Warp termination (always the last instruction of a trace)."""
        return self._ctrl(OpClass.EXIT)
