"""FM-index: backward search over the BWT with sampled suffix array.

This is the data structure at the heart of Bowtie2/NvBowtie.  Memory
layout mirrors the GPU implementation: occurrence (rank) checkpoints
every ``occ_rate`` rows and suffix-array samples every ``sa_rate`` rows,
so a ``locate`` walks LF steps until it hits a sampled row — exactly
the irregular, cache-hostile access pattern the paper observes for NvB.

The index is built with numpy and kept in compact arrays: the BWT as a
latin-1 ``str`` (one byte per row), the sampled suffix array, and per
character a checkpoint count every ``occ_rate`` rows plus, for every
row, the count since its checkpoint (what the GPU kernel computes with
a popcount over the BWT block).  A rank is then two array reads, which
:meth:`backward_search` and :meth:`suffix_position` do inline.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.genomics.index.bwt import SENTINEL
from repro.genomics.index.sa import suffix_order


class FMIndex:
    """FM-index over a sentinel-terminated text.

    Parameters
    ----------
    text:
        The reference text (sentinel added internally; latin-1 only).
    occ_rate:
        Rows between occurrence checkpoints.
    sa_rate:
        Rows between suffix-array samples.
    """

    def __init__(self, text: str, occ_rate: int = 64, sa_rate: int = 16):
        if occ_rate <= 0 or sa_rate <= 0:
            raise ValueError("sampling rates must be positive")
        self.text_length = len(text)
        self.occ_rate = occ_rate
        self.sa_rate = sa_rate

        terminated = text + SENTINEL
        codes = np.frombuffer(terminated.encode("latin-1"), dtype=np.uint8)
        sa = suffix_order(terminated)
        # Row i of the BWT is the character before suffix sa[i]; the
        # suffix at 0 wraps to the sentinel, the last character.
        bwt_codes = codes[sa - 1]
        self._bwt = bwt_codes.tobytes().decode("latin-1")

        # Per present character: (C-table base, checkpoints, offsets),
        # where checkpoints[k] counts the character in bwt[:k*occ_rate]
        # and offsets[row] counts it from row's checkpoint up to row,
        # so rank = checkpoints[row // occ_rate] + offsets[row].
        n = len(bwt_codes)
        counts = np.bincount(bwt_codes, minlength=256)
        offset_type = "B" if occ_rate <= 256 else "I"
        self._symbols: dict[str, tuple[int, array, array]] = {}
        base = 0
        for code in np.flatnonzero(counts).tolist():
            running = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(bwt_codes == code, out=running[1:])
            checkpoints = running[::occ_rate]
            offsets = running - np.repeat(checkpoints, occ_rate)[: n + 1]
            tables = (
                base,
                array("q", checkpoints.tobytes()),
                array(offset_type, offsets.astype(offset_type).tobytes()),
            )
            self._symbols[chr(code)] = tables
            base += int(counts[code])

        #: sa[k * sa_rate]: the sampled rows are the multiples of sa_rate.
        self._sa_samples = array("q", sa[::sa_rate].tobytes())

        #: Access counters consumed by the NvB kernel trace model.
        self.occ_lookups = 0
        self.lf_steps = 0

    def __len__(self) -> int:
        return self.text_length

    @property
    def alphabet(self) -> list[str]:
        """Characters present in the index (including the sentinel)."""
        return sorted(self._symbols)

    def rank(self, ch: str, row: int) -> int:
        """Occurrences of ``ch`` in ``bwt[:row]`` via the checkpoints."""
        self.occ_lookups += 1
        symbol = self._symbols.get(ch)
        if symbol is None:
            return 0
        _, checkpoints, offsets = symbol
        return checkpoints[row // self.occ_rate] + offsets[row]

    def backward_search(self, pattern: str) -> tuple[int, int]:
        """Half-open row range ``[lo, hi)`` of suffixes prefixed by ``pattern``.

        Empty range is returned as ``(0, 0)`` when the pattern does not
        occur.  The search consumes the pattern right to left, one rank
        pair per character — the LF loop of the GPU kernel.
        """
        lo, hi = 0, len(self._bwt)
        rate = self.occ_rate
        symbols = self._symbols
        ranks = 0
        for ch in reversed(pattern):
            symbol = symbols.get(ch)
            if symbol is None:
                lo = hi = 0
                break
            base, checkpoints, offsets = symbol
            ranks += 2
            lo = base + checkpoints[lo // rate] + offsets[lo]
            hi = base + checkpoints[hi // rate] + offsets[hi]
            if lo >= hi:
                lo = hi = 0
                break
        self.occ_lookups += ranks
        return (lo, hi)

    def count(self, pattern: str) -> int:
        """Number of occurrences of ``pattern`` in the text."""
        lo, hi = self.backward_search(pattern)
        return hi - lo

    def suffix_position(self, row: int) -> int:
        """Text offset of the suffix in BWT row ``row`` (LF-walk to a sample)."""
        bwt = self._bwt
        rate = self.occ_rate
        sa_rate = self.sa_rate
        symbols = self._symbols
        steps = 0
        while row % sa_rate:
            base, checkpoints, offsets = symbols[bwt[row]]
            row = base + checkpoints[row // rate] + offsets[row]
            steps += 1
        # One rank per LF step.
        self.occ_lookups += steps
        self.lf_steps += steps
        return (self._sa_samples[row // sa_rate] + steps) % len(bwt)

    def locate(self, pattern: str, limit: int | None = None) -> list[int]:
        """Sorted text offsets where ``pattern`` occurs (up to ``limit``)."""
        lo, hi = self.backward_search(pattern)
        rows = range(lo, hi if limit is None else min(hi, lo + limit))
        return sorted(self.suffix_position(row) for row in rows)

    def reset_counters(self) -> None:
        """Zero the access counters used for trace derivation."""
        self.occ_lookups = 0
        self.lf_steps = 0
