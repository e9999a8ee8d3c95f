"""Trace templating: one generator run per warp equivalence class.

Most warps of a kernel emit *structurally identical* instruction
streams that differ only in the memory lines they touch — PairHMM warps
with the same (rows, cols) shapes differ only by their ``pair_id``
base, SW/NW wavefront tiles differ only by the tile offset.  Kernels
declare this by returning ``(key, bases)`` from
:meth:`~repro.sim.kernel.KernelProgram.trace_template`: warps whose
``key`` matches form one equivalence class, and every line index in a
member's trace must be ``bases[r] + d`` with the same ``(r, d)`` at the
same trace position for every member (or a class-wide constant).

The template layer never trusts that contract blindly.  The first two
members of a class are generated live as *probes*; solving their line
indices against the two bases tuples recovers, per line, the set of
``(region, offset)`` interpretations consistent with both probes.  A
later member is instantiated from the template only where every
remaining interpretation agrees on the resulting line for *its* bases —
any disagreement falls back to live generation for that warp, which
also narrows the candidate sets.  Structure mismatches (different ops,
masks, repeats, spaces, line counts) kill the class outright.

Instantiation is cheap by design: the proto instruction list is
shallow-copied and only the patched LDST instructions are rebuilt,
bypassing dataclass validation.  Instructions without relocatable lines
— ALU blocks, shared-memory traffic, barriers — carry over as the same
objects, and those are not private to the class either:
:class:`~repro.isa.trace.TraceBuilder` interns them, one process-wide
instance per distinct shape for every warp of every kernel.
``REPRO_TRACE_VERIFY=1`` makes the replay layer check every
instantiated trace against the live generator (used by the golden test
suite).
"""

from __future__ import annotations

from repro.isa.instructions import MemAccess, OpClass, WarpInstruction

#: Candidate region id for "this line is a class-wide constant".
FIXED = -1


def relocate_ldst(proto: WarpInstruction, lines: tuple) -> WarpInstruction:
    """A copy of LDST ``proto`` touching ``lines`` instead.

    Bypasses the dataclass/constructor validation: ``proto`` was
    validated when the probe was generated, and relocation preserves
    every field but the line indices (``len(lines)`` is unchanged, so
    ``transactions`` carries over).
    """
    mem0 = proto.mem
    mem = MemAccess.__new__(MemAccess)
    object.__setattr__(mem, "space", mem0.space)
    object.__setattr__(mem, "lines", lines)
    object.__setattr__(mem, "store", mem0.store)
    object.__setattr__(mem, "transactions", mem0.transactions)
    instr = WarpInstruction.__new__(WarpInstruction)
    instr.op = OpClass.LDST
    instr.mask = proto.mask
    instr.mem = mem
    instr.child = None
    instr.repeat = 1
    instr.active_lanes = proto.active_lanes
    instr.kind = proto.kind
    return instr


def structure_matches(a: list, b: list) -> bool:
    """Whether two traces agree in everything but line indices."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (
            x.op is not y.op
            or x.mask != y.mask
            or x.repeat != y.repeat
            or x.child is not None
            or y.child is not None
        ):
            return False
        mx, my = x.mem, y.mem
        if mx is None:
            if my is not None:
                return False
            continue
        if (
            my is None
            or mx.space is not my.space
            or mx.store != my.store
            or len(mx.lines) != len(my.lines)
        ):
            return False
    return True


class _Patch:
    """One proto position whose lines are (possibly) warp-dependent.

    ``cands`` holds, per line, the list of ``(region, offset)``
    interpretations still consistent with every trace seen so far;
    ``region == FIXED`` means "the probe's literal value".
    """

    __slots__ = ("pos", "cands")

    def __init__(self, pos: int, cands: list):
        self.pos = pos
        self.cands = cands


class TraceTemplate:
    """A solved equivalence class: proto trace + relocation patches."""

    __slots__ = ("proto", "patches")

    def __init__(self, proto: list, patches: list):
        self.proto = proto
        self.patches = patches

    def instantiate(self, bases: tuple) -> list | None:
        """The member trace for ``bases``, or None when ambiguous.

        Returns None iff some line still has multiple interpretations
        that disagree for these bases — the caller must generate that
        warp live (and should :meth:`refine` with the result).
        """
        proto = self.proto
        instrs = proto.copy()
        for patch in self.patches:
            lines = []
            for cands in patch.cands:
                region, offset = cands[0]
                value = offset if region < 0 else bases[region] + offset
                for region, offset in cands[1:]:
                    alt = offset if region < 0 else bases[region] + offset
                    if alt != value:
                        return None
                lines.append(value)
            pos = patch.pos
            instrs[pos] = relocate_ldst(proto[pos], tuple(lines))
        return instrs

    def refine(self, instrs: list, bases: tuple) -> bool:
        """Narrow candidate sets with a live member trace.

        Returns False when the live trace is inconsistent with *every*
        remaining interpretation of some line — the kernel's template
        contract is broken and the class must stop instantiating.
        """
        if not structure_matches(self.proto, instrs):
            return False
        for patch in self.patches:
            live_lines = instrs[patch.pos].mem.lines
            for cands, value in zip(patch.cands, live_lines):
                kept = [
                    (region, offset)
                    for region, offset in cands
                    if (offset if region < 0 else bases[region] + offset)
                    == value
                ]
                if not kept:
                    return False
                cands[:] = kept
        return True


def build_template(
    probe0: list, bases0: tuple, probe1: list, bases1: tuple
) -> TraceTemplate | None:
    """Solve the relocation between two probe traces of one class.

    Returns None when the probes are not an affine relocation of each
    other over the declared bases (the class cannot be templated).
    """
    if not structure_matches(probe0, probe1):
        return None
    patches = []
    for pos, (a, b) in enumerate(zip(probe0, probe1)):
        ma, mb = a.mem, b.mem
        if ma is None or not ma.lines:
            continue
        cands = []
        patched = False
        for l0, l1 in zip(ma.lines, mb.lines):
            c = []
            if l0 == l1:
                c.append((FIXED, l0))
            for region, (p0, p1) in enumerate(zip(bases0, bases1)):
                if l0 - p0 == l1 - p1:
                    c.append((region, l0 - p0))
            if not c:
                return None
            # A line whose only interpretation is its literal value is
            # class-constant; anything else (a region offset, or a
            # literal that some region could also explain because the
            # probes share that base) needs per-member resolution.
            if len(c) > 1 or c[0][0] != FIXED:
                patched = True
            cands.append(c)
        if patched:
            patches.append(_Patch(pos, cands))
    return TraceTemplate(list(probe0), patches)
