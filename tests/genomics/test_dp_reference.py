"""The optimized DP fills against textbook max()-based references.

``gotoh._fill`` and ``banded.banded_global`` carry neighbours in locals,
read a query profile and inline their maxima.  The arithmetic is
unchanged, so every H/E/F cell (and every banded alignment) must equal
the plain recurrence exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.genomics.align.banded import band_limits, banded_global
from repro.genomics.align.gotoh import (
    NEG_INF,
    AlignmentMode,
    _fill,
    _Matrices,
    _traceback,
)
from repro.genomics.scoring import ScoringScheme

SCHEME = ScoringScheme.dna_default()

dna = st.text(alphabet="ACGTN", max_size=14)


def _reference_rows(query, target, h, e, f, columns, local=False):
    """The Gotoh recurrence, one builtin max() per term."""
    score = SCHEME.matrix.score
    open_ext = SCHEME.gap_open + SCHEME.gap_extend
    ext = SCHEME.gap_extend
    for i in range(1, len(query) + 1):
        for j in columns(i):
            e[i][j] = max(h[i][j - 1] - open_ext, e[i][j - 1] - ext)
            f[i][j] = max(h[i - 1][j] - open_ext, f[i - 1][j] - ext)
            h[i][j] = max(h[i - 1][j - 1] + score(query[i - 1], target[j - 1]),
                          e[i][j], f[i][j])
            if local:
                h[i][j] = max(h[i][j], 0)


def _reference_fill(query, target, mode):
    m, n = len(query), len(target)
    h = [[0] * (n + 1) for _ in range(m + 1)]
    e = [[NEG_INF] * (n + 1) for _ in range(m + 1)]
    f = [[NEG_INF] * (n + 1) for _ in range(m + 1)]
    if mode is AlignmentMode.GLOBAL:
        for j in range(1, n + 1):
            e[0][j] = h[0][j] = -(SCHEME.gap_open + j * SCHEME.gap_extend)
    if mode is not AlignmentMode.LOCAL:
        for i in range(1, m + 1):
            f[i][0] = h[i][0] = -(SCHEME.gap_open + i * SCHEME.gap_extend)
    _reference_rows(query, target, h, e, f, lambda i: range(1, n + 1),
                    local=mode is AlignmentMode.LOCAL)
    return h, e, f


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


@settings(max_examples=60, deadline=None)
@given(query=dna, target=dna, mode=st.sampled_from(list(AlignmentMode)))
def test_fill_matches_reference_recurrence(query, target, mode):
    mats = _fill(query, target, SCHEME, mode)
    assert (mats.h, mats.e, mats.f) == _reference_fill(query, target, mode)


@settings(max_examples=60, deadline=None)
@given(query=dna, target=dna, band=st.integers(min_value=0, max_value=6))
def test_banded_matches_reference_recurrence(query, target, band):
    expected = _reference_banded(query, target, band)
    try:
        result = banded_global(query, target, SCHEME, band=band)
    except ValueError:
        result = None
    assert result == expected
