"""The optimized DP fills against textbook max()-based references.

``gotoh._fill`` computes each row with int64 array operations (E as a
running maximum) and ``banded.banded_global`` carries neighbours in
locals, reads a query profile and inlines its maxima.  The arithmetic
is exact, so every H/E/F cell, the chosen end cell (and every banded
alignment) must equal the plain recurrence.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.genomics.align.banded import band_limits, banded_global
from repro.genomics.align.gotoh import (
    NEG_INF,
    AlignmentMode,
    _fill,
    _Matrices,
    _traceback,
)
from repro.genomics.scoring import ScoringScheme, SubstitutionMatrix

SCHEME = ScoringScheme.dna_default()
PROTEIN = ScoringScheme.protein_default()  # BLOSUM62, open 11, extend 1
#: ``gap_open == 0`` is the boundary of the running-max identity for E.
NO_OPEN = ScoringScheme(SubstitutionMatrix.match_mismatch(), 0, 2)

dna = st.text(alphabet="ACGTN", max_size=40)
protein = st.text(alphabet="ARNDCQEGHILKMFPSTWYVX", max_size=40)


def _reference_rows(query, target, h, e, f, columns, local=False,
                    scheme=SCHEME):
    """The Gotoh recurrence, one builtin max() per term."""
    score = scheme.matrix.score
    open_ext = scheme.gap_open + scheme.gap_extend
    ext = scheme.gap_extend
    for i in range(1, len(query) + 1):
        for j in columns(i):
            e[i][j] = max(h[i][j - 1] - open_ext, e[i][j - 1] - ext)
            f[i][j] = max(h[i - 1][j] - open_ext, f[i - 1][j] - ext)
            h[i][j] = max(h[i - 1][j - 1] + score(query[i - 1], target[j - 1]),
                          e[i][j], f[i][j])
            if local:
                h[i][j] = max(h[i][j], 0)


def _reference_end(h, mode):
    """The end cell: the corner, the first strict maximum in row-major
    order (LOCAL, (0, 0) when nothing scores), or the leftmost best
    cell of the last row (SEMI_GLOBAL)."""
    m, n = len(h) - 1, len(h[0]) - 1
    if mode is AlignmentMode.GLOBAL:
        return (m, n)
    if mode is AlignmentMode.LOCAL:
        best, end = 0, (0, 0)
        for i in range(m + 1):
            for j in range(n + 1):
                if h[i][j] > best:
                    best, end = h[i][j], (i, j)
        return end
    best_j = 0
    for j in range(n + 1):
        if h[m][j] > h[m][best_j]:
            best_j = j
    return (m, best_j)


def _reference_fill(query, target, mode, scheme=SCHEME):
    m, n = len(query), len(target)
    h = [[0] * (n + 1) for _ in range(m + 1)]
    e = [[NEG_INF] * (n + 1) for _ in range(m + 1)]
    f = [[NEG_INF] * (n + 1) for _ in range(m + 1)]
    if mode is AlignmentMode.GLOBAL:
        for j in range(1, n + 1):
            e[0][j] = h[0][j] = -(scheme.gap_open + j * scheme.gap_extend)
    if mode is not AlignmentMode.LOCAL:
        for i in range(1, m + 1):
            f[i][0] = h[i][0] = -(scheme.gap_open + i * scheme.gap_extend)
    _reference_rows(query, target, h, e, f, lambda i: range(1, n + 1),
                    local=mode is AlignmentMode.LOCAL, scheme=scheme)
    return h, e, f, _reference_end(h, mode)


def _check_fill(query, target, mode, scheme):
    mats = _fill(query, target, scheme, mode)
    assert (mats.h, mats.e, mats.f, mats.end) == _reference_fill(
        query, target, mode, scheme)


def _reference_banded(query, target, band):
    m, n = len(query), len(target)
    h = [[NEG_INF] * (n + 1) for _ in range(m + 1)]
    e = [[NEG_INF] * (n + 1) for _ in range(m + 1)]
    f = [[NEG_INF] * (n + 1) for _ in range(m + 1)]
    h[0][0] = 0
    for j in range(1, min(n, band + (n - m) if n >= m else band) + 1):
        e[0][j] = h[0][j] = -(SCHEME.gap_open + j * SCHEME.gap_extend)
    for i in range(1, min(m, band) + 1):
        f[i][0] = h[i][0] = -(SCHEME.gap_open + i * SCHEME.gap_extend)

    def columns(i):
        lo, hi = band_limits(i, m, n, band)
        return range(lo, hi + 1)

    _reference_rows(query, target, h, e, f, columns)
    if h[m][n] <= NEG_INF // 2:
        return None
    return _traceback(query, target, SCHEME, AlignmentMode.GLOBAL,
                      _Matrices(h, e, f, (m, n)))


@settings(max_examples=80, deadline=None)
@given(query=dna, target=dna, mode=st.sampled_from(list(AlignmentMode)))
def test_fill_matches_reference_recurrence(query, target, mode):
    _check_fill(query, target, mode, SCHEME)


@settings(max_examples=40, deadline=None)
@given(query=protein, target=protein,
       mode=st.sampled_from(list(AlignmentMode)))
def test_fill_matches_reference_protein_scheme(query, target, mode):
    _check_fill(query, target, mode, PROTEIN)


@settings(max_examples=40, deadline=None)
@given(query=dna, target=dna, mode=st.sampled_from(list(AlignmentMode)))
def test_fill_matches_reference_without_gap_open(query, target, mode):
    _check_fill(query, target, mode, NO_OPEN)


@pytest.mark.parametrize("scheme", [SCHEME, PROTEIN, NO_OPEN],
                         ids=["dna", "protein", "no-open"])
@pytest.mark.parametrize("mode", list(AlignmentMode), ids=lambda m: m.value)
@pytest.mark.parametrize("query,target", [
    ("", ""), ("", "ACGTA"), ("GATTACA", ""),
    # Tied row maxima: LOCAL must end on the first one in row-major order.
    ("A", "AA"), ("ACGT", "TACGTACGT"),
], ids=["both-empty", "empty-query", "empty-target", "tie", "repeat-tie"])
def test_fill_matches_reference_on_edge_inputs(query, target, mode, scheme):
    _check_fill(query, target, mode, scheme)


@settings(max_examples=60, deadline=None)
@given(query=dna, target=dna, band=st.integers(min_value=0, max_value=6))
def test_banded_matches_reference_recurrence(query, target, band):
    expected = _reference_banded(query, target, band)
    try:
        result = banded_global(query, target, SCHEME, band=band)
    except ValueError:
        result = None
    assert result == expected
