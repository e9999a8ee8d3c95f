"""KSW-style banded global alignment (GASAL2 ``GKSW``).

Restricts the Gotoh dynamic program to a diagonal band of half-width
``band``: cell ``(i, j)`` is computed only when
``i - band <= j <= i + band + (n - m)``.  With a sufficient band the
result equals full Needleman–Wunsch at a fraction of the work; with a
narrow band it is the heuristic the KSW/minimap2 family uses.
"""

from __future__ import annotations

from repro.genomics.align.gotoh import (
    NEG_INF,
    AlignmentMode,
    _Matrices,
    _as_residues,
    _traceback,
    query_profile,
)
from repro.genomics.scoring import ScoringScheme
from repro.genomics.align.result import AlignmentResult


def band_limits(i: int, m: int, n: int, band: int) -> tuple[int, int]:
    """Inclusive column range of the band on row ``i`` (clamped to 1..n)."""
    lo = max(1, i - band)
    hi = min(n, i + band + (n - m))
    return lo, hi


def banded_global(
    query,
    target,
    scheme: ScoringScheme | None = None,
    band: int = 32,
) -> AlignmentResult:
    """Global alignment constrained to a diagonal band.

    Raises ``ValueError`` when the band cannot connect the two corners
    (i.e. the length difference exceeds what the band allows).
    """
    scheme = scheme or ScoringScheme.dna_default()
    q = _as_residues(query)
    t = _as_residues(target)
    m, n = len(q), len(t)
    if band < 0:
        raise ValueError("band must be non-negative")
    if abs(n - m) > band + abs(n - m):  # pragma: no cover - always false
        raise ValueError("band too narrow for length difference")

    open_ext = scheme.gap_open + scheme.gap_extend
    ext = scheme.gap_extend

    h = [[NEG_INF] * (n + 1) for _ in range(m + 1)]
    e = [[NEG_INF] * (n + 1) for _ in range(m + 1)]
    f = [[NEG_INF] * (n + 1) for _ in range(m + 1)]

    h[0][0] = 0
    for j in range(1, min(n, band + (n - m) if n >= m else band) + 1):
        e[0][j] = -(scheme.gap_open + j * ext)
        h[0][j] = e[0][j]
    for i in range(1, min(m, band) + 1):
        f[i][0] = -(scheme.gap_open + i * ext)
        h[i][0] = f[i][0]

    profile = query_profile(q, t, scheme)
    for i in range(1, m + 1):
        scores = profile[q[i - 1]]
        lo, hi = band_limits(i, m, n, band)
        if lo > hi:
            continue
        h_prev, h_row = h[i - 1], h[i]
        e_row = e[i]
        f_prev, f_row = f[i - 1], f[i]
        # Same inline-maxima cell update as gotoh._fill, inside the band.
        h_left, e_val, h_diag = h_row[lo - 1], e_row[lo - 1], h_prev[lo - 1]
        for j in range(lo, hi + 1):
            e_val -= ext
            gap = h_left - open_ext
            if gap > e_val:
                e_val = gap
            h_up = h_prev[j]
            f_val = f_prev[j] - ext
            gap = h_up - open_ext
            if gap > f_val:
                f_val = gap
            h_val = h_diag + scores[j - 1]
            if e_val > h_val:
                h_val = e_val
            if f_val > h_val:
                h_val = f_val
            h_row[j] = h_val
            e_row[j] = e_val
            f_row[j] = f_val
            h_left, h_diag = h_val, h_up

    if h[m][n] <= NEG_INF // 2:
        raise ValueError(
            f"band {band} too narrow to align lengths {m} and {n}"
        )
    mats = _Matrices(h, e, f, (m, n))
    return _traceback(q, t, scheme, AlignmentMode.GLOBAL, mats)


def band_cells(query_len: int, target_len: int, band: int) -> int:
    """DP cells inside the band — used by the GKSW kernel trace model."""
    m, n = query_len, target_len
    total = 0
    for i in range(1, m + 1):
        lo, hi = band_limits(i, m, n, band)
        if hi >= lo:
            total += hi - lo + 1
    return total
