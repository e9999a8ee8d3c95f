"""Affine-gap pairwise alignment (Gotoh's algorithm).

One dynamic-programming engine serves three alignment modes:

- ``GLOBAL`` — Needleman–Wunsch: both sequences aligned end to end.
- ``LOCAL`` — Smith–Waterman: best-scoring subsequence pair.
- ``SEMI_GLOBAL`` — the query is aligned end to end, leading and
  trailing gaps in the *target* are free (read-to-reference mapping).

Three matrices are kept: ``H`` (best score), ``E`` (gap open in the
query, i.e. target residue consumed, CIGAR ``D``) and ``F`` (gap in the
target, CIGAR ``I``).  Traceback re-derives the decisions from the
stored matrices, so no pointer matrix is needed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.genomics.align.result import AlignmentResult, compress_ops
from repro.genomics.scoring import ScoringScheme
from repro.genomics.sequence import Sequence

NEG_INF = -(10**9)


class AlignmentMode(enum.Enum):
    """Which boundary conditions the DP uses."""

    GLOBAL = "global"
    LOCAL = "local"
    SEMI_GLOBAL = "semi_global"


@dataclass
class _Matrices:
    """Filled DP matrices plus the chosen end cell."""

    h: list[list[int]]
    e: list[list[int]]
    f: list[list[int]]
    end: tuple[int, int]


def _as_residues(seq) -> str:
    return seq.residues if isinstance(seq, Sequence) else str(seq)


def query_profile(
    query: str, target: str, scheme: ScoringScheme
) -> dict[str, list[int]]:
    """Substitution scores against ``target``, one row per distinct
    query residue: the DP reads ``profile[q][j]`` instead of calling the
    matrix once per cell."""
    score_fn = scheme.matrix.score
    return {q: [score_fn(q, t) for t in target] for q in set(query)}


def _fill(
    query: str, target: str, scheme: ScoringScheme, mode: AlignmentMode
) -> _Matrices:
    """Fill H, E and F one row at a time with exact int64 array maths.

    F, and H without its E term (``h0``), are element-wise in the row
    above.  E is a running maximum: with ``gap_open >= 0`` (which
    :class:`ScoringScheme` enforces) reopening a gap after ``E[j-1]``
    never beats extending it, so ``E[j] = max(E[j-1] - ext, h0[j-1] -
    open - ext)`` and ``E[j] + j*ext`` is a prefix maximum.  The
    matrices are handed to the traceback as lists.
    """
    m, n = len(query), len(target)
    ext = scheme.gap_extend
    local = mode is AlignmentMode.LOCAL

    h = np.zeros((m + 1, n + 1), dtype=np.int64)
    e = np.full((m + 1, n + 1), NEG_INF, dtype=np.int64)
    f = np.full((m + 1, n + 1), NEG_INF, dtype=np.int64)
    ramp = np.arange(n + 1, dtype=np.int64) * ext  # j * ext
    if mode is AlignmentMode.GLOBAL:
        e[0, 1:] = h[0, 1:] = -(scheme.gap_open + ramp[1:])
    # SEMI_GLOBAL and LOCAL: free leading target gaps -> h[0][j] = 0.
    if not local:
        f[1:, 0] = h[1:, 0] = -(
            scheme.gap_open + np.arange(1, m + 1, dtype=np.int64) * ext
        )

    profile = {
        q: np.array(row, dtype=np.int64)
        for q, row in query_profile(query, target, scheme).items()
    }
    shift = ramp[1:] - (scheme.gap_open + ext)
    d = np.empty(n + 1, dtype=np.int64)
    d[0] = NEG_INF  # E[i][0]: column 0 consumes no target residue
    best = 0
    best_pos = (0, 0)
    for i in range(1, m + 1):
        h_prev, h_row, e_row, f_row = h[i - 1], h[i], e[i], f[i]
        # F = max(F_up - ext, H_up - open - ext), as one subtraction.
        np.maximum(f[i - 1, 1:], h_prev[1:] - scheme.gap_open,
                   out=f_row[1:])
        f_row[1:] -= ext
        np.maximum(h_prev[:-1] + profile[query[i - 1]], f_row[1:],
                   out=h_row[1:])
        if local:
            np.maximum(h_row, 0, out=h_row)
        np.add(h_row[:-1], shift, out=d[1:])
        np.maximum.accumulate(d, out=e_row)
        e_row -= ramp
        np.maximum(h_row, e_row, out=h_row)
        if local and n:
            # The first strict maximum in row-major order.
            j = int(h_row[1:].argmax()) + 1
            if h_row[j] > best:
                best = int(h_row[j])
                best_pos = (i, j)

    h, e, f = h.tolist(), e.tolist(), f.tolist()
    if mode is AlignmentMode.GLOBAL:
        end = (m, n)
    elif mode is AlignmentMode.LOCAL:
        end = best_pos
    else:  # SEMI_GLOBAL: best cell in the last row (free trailing target gap)
        last = h[m]
        best_j = max(range(n + 1), key=lambda j: (last[j], -j))
        end = (m, best_j)
    return _Matrices(h, e, f, end)


def _traceback(
    query: str,
    target: str,
    scheme: ScoringScheme,
    mode: AlignmentMode,
    mats: _Matrices,
) -> AlignmentResult:
    h, e, f = mats.h, mats.e, mats.f
    open_ext = scheme.gap_open + scheme.gap_extend
    ext = scheme.gap_extend
    score_fn = scheme.matrix.score
    local = mode is AlignmentMode.LOCAL

    i, j = mats.end
    score = h[i][j]
    ops: list[str] = []
    state = "H"
    while True:
        if state == "H":
            if local and h[i][j] == 0:
                break
            if i == 0 and j == 0:
                break
            if mode is not AlignmentMode.GLOBAL and i == 0:
                break  # free leading target gaps
            if i > 0 and j > 0 and h[i][j] == h[i - 1][j - 1] + score_fn(
                query[i - 1], target[j - 1]
            ):
                ops.append("M")
                i -= 1
                j -= 1
            elif j > 0 and h[i][j] == e[i][j]:
                state = "E"
            elif i > 0 and h[i][j] == f[i][j]:
                state = "F"
            else:  # pragma: no cover - would indicate a fill bug
                raise AssertionError("traceback lost at H[%d][%d]" % (i, j))
        elif state == "E":
            ops.append("D")
            came_from_e = j > 1 and e[i][j] == e[i][j - 1] - ext
            came_from_h = e[i][j] == h[i][j - 1] - open_ext
            j -= 1
            if came_from_h:
                state = "H"
            elif not came_from_e:  # pragma: no cover
                raise AssertionError("traceback lost at E")
        else:  # state == "F"
            ops.append("I")
            came_from_f = i > 1 and f[i][j] == f[i - 1][j] - ext
            came_from_h = f[i][j] == h[i - 1][j] - open_ext
            i -= 1
            if came_from_h:
                state = "H"
            elif not came_from_f:  # pragma: no cover
                raise AssertionError("traceback lost at F")

    ops.reverse()
    q_start, t_start = i, j
    q_end, t_end = mats.end

    aligned_q: list[str] = []
    aligned_t: list[str] = []
    qi, ti = q_start, t_start
    for op in ops:
        if op == "M":
            aligned_q.append(query[qi])
            aligned_t.append(target[ti])
            qi += 1
            ti += 1
        elif op == "D":
            aligned_q.append("-")
            aligned_t.append(target[ti])
            ti += 1
        else:
            aligned_q.append(query[qi])
            aligned_t.append("-")
            qi += 1

    return AlignmentResult(
        score=score,
        cigar=compress_ops(ops),
        query_start=q_start,
        query_end=q_end,
        target_start=t_start,
        target_end=t_end,
        aligned_query="".join(aligned_q),
        aligned_target="".join(aligned_t),
    )


def align(
    query,
    target,
    scheme: ScoringScheme | None = None,
    mode: AlignmentMode = AlignmentMode.GLOBAL,
) -> AlignmentResult:
    """Align ``query`` against ``target`` and return the best alignment.

    ``query``/``target`` may be :class:`~repro.genomics.sequence.Sequence`
    objects or plain strings.  ``scheme`` defaults to the GASAL2-style
    DNA scheme (+2/-3, gap open 5, extend 1).
    """
    scheme = scheme or ScoringScheme.dna_default()
    q = _as_residues(query)
    t = _as_residues(target)
    mats = _fill(q, t, scheme, mode)
    return _traceback(q, t, scheme, mode, mats)


def needleman_wunsch(query, target, scheme=None) -> AlignmentResult:
    """Global (end-to-end) alignment — the paper's NW benchmark."""
    return align(query, target, scheme, AlignmentMode.GLOBAL)


def smith_waterman(query, target, scheme=None) -> AlignmentResult:
    """Local alignment — the paper's SW benchmark."""
    return align(query, target, scheme, AlignmentMode.LOCAL)


def semi_global(query, target, scheme=None) -> AlignmentResult:
    """Semi-global alignment (GASAL2 ``GSG``): full query, free target ends."""
    return align(query, target, scheme, AlignmentMode.SEMI_GLOBAL)
