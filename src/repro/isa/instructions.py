"""Warp instructions.

The simulator is trace driven: kernels are Python generators that yield
:class:`WarpInstruction` objects per warp.  Memory operands are carried
at *cache line* granularity (the coalescer in the trace builder has
already collapsed per-lane addresses), which is the granularity every
downstream model — caches, NoC, DRAM — operates at.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

WARP_SIZE = 32
FULL_MASK = (1 << WARP_SIZE) - 1

#: Cache line size in bytes, fixed across the suite (Table I: 128B lines).
LINE_BYTES = 128


def popcount(mask: int) -> int:
    """Number of set bits (active lanes) in a mask."""
    return (mask & FULL_MASK).bit_count()


class OpClass(enum.Enum):
    """Instruction categories reported in Fig 8."""

    INT = "int"
    FP = "fp"
    SFU = "sfu"
    LDST = "ldst"
    CTRL = "ctrl"
    SYNC = "sync"  # CTA barrier
    DEVSYNC = "devsync"  # cudaDeviceSynchronize (CDP parent waits)
    LAUNCH = "launch"  # CDP device-side kernel launch
    EXIT = "exit"


class MemSpace(enum.Enum):
    """Memory spaces reported in Fig 9."""

    GLOBAL = "global"
    LOCAL = "local"
    SHARED = "shared"
    CONST = "const"
    TEX = "tex"
    PARAM = "param"


@dataclass(frozen=True)
class MemAccess:
    """One memory operand: the 128B lines it touches after coalescing.

    ``lines`` are line *indices* (byte address // 128) in a flat device
    address space.  ``store`` marks writes.
    """

    space: MemSpace
    lines: tuple[int, ...]
    store: bool = False
    #: number of memory transactions the access generates; computed at
    #: construction (the issue loop reads it once per dynamic LDST)
    transactions: int = 0

    def __post_init__(self) -> None:
        if not self.lines and self.space not in (MemSpace.SHARED,):
            raise ValueError("memory access must touch at least one line")
        object.__setattr__(self, "transactions", max(1, len(self.lines)))


#: Issue-loop dispatch codes (``WarpInstruction.kind``).  The SM
#: branches on this one int instead of comparing enums and loading the
#: memory operand; the three ALU codes come first and index its latency
#: tuple.  Shared-memory LDSTs get their own code (they never leave the
#: SM), and the grid-bookkeeping ops sort last.
K_INT, K_FP, K_SFU, K_SHARED, K_LDST, K_CTRL, K_SYNC, K_DEVSYNC, K_LAUNCH, \
    K_EXIT = range(10)

#: keyed by ``OpClass`` value: the enum's own hash is a Python-level
#: call, a string's is cached
_OP_KIND = {
    OpClass.INT.value: K_INT,
    OpClass.FP.value: K_FP,
    OpClass.SFU.value: K_SFU,
    OpClass.LDST.value: K_LDST,
    OpClass.CTRL.value: K_CTRL,
    OpClass.SYNC.value: K_SYNC,
    OpClass.DEVSYNC.value: K_DEVSYNC,
    OpClass.LAUNCH.value: K_LAUNCH,
    OpClass.EXIT.value: K_EXIT,
}

# Aliases: an enum class attribute lookup costs ~100 ns, and the
# constructor runs once per generated instruction.
_ALU_OPS = (OpClass.INT, OpClass.FP, OpClass.SFU)
_LDST = OpClass.LDST
_LAUNCH = OpClass.LAUNCH
_SHARED = MemSpace.SHARED


def instruction_kind(op: OpClass, mem: MemAccess | None) -> int:
    """The dispatch code of an instruction with ``op`` and ``mem``."""
    if mem is not None and mem.space is _SHARED:
        return K_SHARED
    return _OP_KIND[op._value_]


class WarpInstruction:
    """One dynamic warp instruction.

    ``repeat`` lets a trace generator emit N identical back-to-back
    ALU instructions as one object; the SM front end still charges N
    issue slots, so timing is unchanged while trace generation stays
    cheap.  Memory/control/sync instructions must use ``repeat == 1``.

    ``kind`` is the issue loop's dispatch code (see
    :func:`instruction_kind`); every route that builds an instruction
    without this constructor must set it too.
    """

    __slots__ = ("op", "mask", "mem", "child", "repeat", "active_lanes",
                 "kind")

    def __init__(
        self,
        op: OpClass,
        mask: int = FULL_MASK,
        mem: MemAccess | None = None,
        child=None,
        repeat: int = 1,
    ):
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        if repeat > 1 and op not in _ALU_OPS:
            raise ValueError("repeat > 1 is only valid for ALU instructions")
        if mem is not None and op is not _LDST:
            raise ValueError("memory operand requires an LDST op")
        if op is _LDST and mem is None:
            raise ValueError("LDST requires a memory operand")
        if child is not None and op is not _LAUNCH:
            raise ValueError("child grid requires a LAUNCH op")
        self.op = op
        self.mask = mask & FULL_MASK
        self.mem = mem
        self.child = child
        self.repeat = repeat
        # Computed eagerly: each instruction is issued at least once, and
        # trace replays (see repro.sim.replay) reuse the same objects, so
        # the popcount amortizes across sweep points.
        self.active_lanes = popcount(self.mask)
        self.kind = instruction_kind(op, mem)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" mem={self.mem.space.value}x{len(self.mem.lines)}" if self.mem else ""
        return f"<{self.op.value} lanes={self.active_lanes}{extra} x{self.repeat}>"
