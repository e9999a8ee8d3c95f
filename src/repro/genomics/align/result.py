"""Alignment result representation and CIGAR utilities."""

from __future__ import annotations

import re
from dataclasses import dataclass

_CIGAR_TOKEN = re.compile(r"(\d+)([MIDX=])")

#: CIGAR operation consuming (query, target) residues.
_CONSUMES = {
    "M": (True, True),
    "=": (True, True),
    "X": (True, True),
    "I": (True, False),  # insertion relative to the target
    "D": (False, True),  # deletion relative to the target
}


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of a pairwise alignment.

    Coordinates are half-open, 0-based offsets into the *original*
    (ungapped) sequences.  ``cigar`` uses ``M`` for aligned pairs
    (match or mismatch), ``I`` for query insertions and ``D`` for
    deletions, e.g. ``"5M2I3M"``.
    """

    score: int
    cigar: str
    query_start: int
    query_end: int
    target_start: int
    target_end: int
    aligned_query: str
    aligned_target: str

    def __post_init__(self) -> None:
        q_span = sum(
            n for n, op in parse_cigar(self.cigar) if _CONSUMES[op][0]
        )
        t_span = sum(
            n for n, op in parse_cigar(self.cigar) if _CONSUMES[op][1]
        )
        if q_span != self.query_end - self.query_start:
            raise ValueError("CIGAR query span disagrees with coordinates")
        if t_span != self.target_end - self.target_start:
            raise ValueError("CIGAR target span disagrees with coordinates")

    @property
    def length(self) -> int:
        """Number of alignment columns (including gap columns)."""
        return len(self.aligned_query)

    def identity(self) -> float:
        """Fraction of alignment columns that are exact matches."""
        if not self.aligned_query:
            return 0.0
        matches = sum(
            1
            for a, b in zip(self.aligned_query, self.aligned_target)
            if a == b and a != "-"
        )
        return matches / self.length

    def matches(self) -> int:
        """Count of exactly matching columns."""
        return sum(
            1
            for a, b in zip(self.aligned_query, self.aligned_target)
            if a == b and a != "-"
        )


def parse_cigar(cigar: str) -> list[tuple[int, str]]:
    """Parse ``"5M2I"`` into ``[(5, "M"), (2, "I")]``, validating syntax."""
    if not cigar:
        return []
    pos = 0
    ops: list[tuple[int, str]] = []
    for match in _CIGAR_TOKEN.finditer(cigar):
        if match.start() != pos:
            raise ValueError(f"malformed CIGAR: {cigar!r}")
        ops.append((int(match.group(1)), match.group(2)))
        pos = match.end()
    if pos != len(cigar):
        raise ValueError(f"malformed CIGAR: {cigar!r}")
    return ops


def compress_ops(ops: list[str]) -> str:
    """Run-length encode per-column ops ``["M","M","I"]`` -> ``"2M1I"``."""
    if not ops:
        return ""
    out: list[str] = []
    run_op = ops[0]
    run_len = 1
    for op in ops[1:]:
        if op == run_op:
            run_len += 1
        else:
            out.append(f"{run_len}{run_op}")
            run_op, run_len = op, 1
    out.append(f"{run_len}{run_op}")
    return "".join(out)
