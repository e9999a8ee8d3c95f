"""Suffix array construction by prefix doubling.

Two implementations of Manber–Myers rank doubling:

- :func:`suffix_array_numpy` — vectorized with ``numpy.argsort``; builds
  megabase-scale arrays in seconds and is the default.
- :func:`suffix_array_python` — pure standard library; the readable
  reference the vectorized version is property-tested against.
"""

from __future__ import annotations

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a hard dependency
    _np = None


def suffix_array_python(text: str) -> list[int]:
    """Pure-Python suffix array (``O(n log^2 n)`` with library sort)."""
    n = len(text)
    if n == 0:
        return []
    if n == 1:
        return [0]

    rank = [ord(c) for c in text]
    tmp = [0] * n
    sa = list(range(n))
    k = 1
    while True:
        def sort_key(i: int) -> tuple[int, int]:
            tail = rank[i + k] if i + k < n else -1
            return (rank[i], tail)

        sa.sort(key=sort_key)
        tmp[sa[0]] = 0
        for idx in range(1, n):
            prev, cur = sa[idx - 1], sa[idx]
            tmp[cur] = tmp[prev] + (1 if sort_key(cur) != sort_key(prev) else 0)
        rank = tmp[:]
        if rank[sa[-1]] == n - 1:
            break
        k <<= 1
    return sa


def suffix_array_numpy(text: str) -> list[int]:
    """Vectorized suffix array via ``numpy.argsort`` rank doubling."""
    return suffix_order(text).tolist()


def suffix_order(text: str):
    """The suffix array of ``text`` as an int64 numpy array.

    The array form of :func:`suffix_array_numpy`, for callers that keep
    working on it in numpy (the FM-index build) instead of paying for a
    list of Python ints.
    """
    n = len(text)
    if n <= 1:
        return _np.zeros(n, dtype=_np.int64)

    rank = _np.frombuffer(text.encode("latin-1"), dtype=_np.uint8).astype(
        _np.int64
    )
    k = 1
    while True:
        # One sort key per suffix: (rank, rank k positions ahead), the
        # tail shifted by one so past-the-end (-1) sorts first.  Ties
        # may land in any order; they share a rank until the last
        # round, when every key is distinct.
        radix = int(rank.max()) + 2
        key = rank * radix
        key[: n - k] += rank[k:] + 1
        order = _np.argsort(key)
        # Re-rank: increment where the key changes.
        sorted_key = key[order]
        changed = _np.empty(n, dtype=_np.int64)
        changed[0] = 0
        _np.not_equal(sorted_key[1:], sorted_key[:-1], out=changed[1:])
        new_rank = _np.empty(n, dtype=_np.int64)
        new_rank[order] = _np.cumsum(changed)
        rank = new_rank
        if rank[order[-1]] == n - 1:
            return order
        k <<= 1


def suffix_array(text: str) -> list[int]:
    """Suffix array of ``text`` (no sentinel added; empty text -> []).

    ``result[i]`` is the start offset of the i-th smallest suffix.
    Uses the numpy implementation when available.
    """
    if _np is not None:
        return suffix_array_numpy(text)
    return suffix_array_python(text)  # pragma: no cover - numpy required
