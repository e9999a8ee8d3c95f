"""FM-index: backward search over the BWT with sampled suffix array.

This is the data structure at the heart of Bowtie2/NvBowtie.  Memory
layout mirrors the GPU implementation: occurrence (rank) checkpoints
every ``occ_rate`` rows and suffix-array samples every ``sa_rate`` rows,
so a ``locate`` walks LF steps until it hits a sampled row — exactly
the irregular, cache-hostile access pattern the paper observes for NvB.
"""

from __future__ import annotations

from repro.genomics.index.bwt import SENTINEL, bwt_from_sa
from repro.genomics.index.sa import suffix_array


class FMIndex:
    """FM-index over a sentinel-terminated text.

    Parameters
    ----------
    text:
        The reference text (sentinel added internally).
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

        sa = suffix_array(text + SENTINEL)
        self._bwt = bwt_from_sa(text, sa)
        n = len(self._bwt)

        # C table: rows whose suffix starts with a smaller character.
        counts: dict[str, int] = {}
        for ch in self._bwt:
            counts[ch] = counts.get(ch, 0) + 1
        self._c_table: dict[str, int] = {}
        offset = 0
        for ch in sorted(counts):
            self._c_table[ch] = offset
            offset += counts[ch]

        # Occurrence checkpoints: occ[k][ch] = count of ch in bwt[:k*rate].
        self._checkpoints: list[dict[str, int]] = []
        running = {ch: 0 for ch in counts}
        for i in range(n):
            if i % occ_rate == 0:
                self._checkpoints.append(dict(running))
            running[self._bwt[i]] += 1
        self._checkpoints.append(dict(running))

        # Sampled suffix array.
        self._sa_samples: dict[int, int] = {
            row: pos for row, pos in enumerate(sa) if row % sa_rate == 0
        }

        #: Access counters consumed by the NvB kernel trace model.
        self.occ_lookups = 0
        self.lf_steps = 0

    def __len__(self) -> int:
        return self.text_length

    @property
    def alphabet(self) -> list[str]:
        """Characters present in the index (including the sentinel)."""
        return sorted(self._c_table)

    def rank(self, ch: str, row: int) -> int:
        """Occurrences of ``ch`` in ``bwt[:row]`` via the checkpoints."""
        self.occ_lookups += 1
        checkpoint = row // self.occ_rate
        return self._checkpoints[checkpoint].get(ch, 0) + self._bwt.count(
            ch, checkpoint * self.occ_rate, row
        )

    def backward_search(self, pattern: str) -> tuple[int, int]:
        """Half-open row range ``[lo, hi)`` of suffixes prefixed by ``pattern``.

        Empty range is returned as ``(0, 0)`` when the pattern does not
        occur.  The search consumes the pattern right to left, one rank
        pair per character — the LF loop of the GPU kernel.
        """
        if not pattern:
            return (0, len(self._bwt))
        lo, hi = 0, len(self._bwt)
        for ch in reversed(pattern):
            if ch not in self._c_table:
                return (0, 0)
            base = self._c_table[ch]
            lo = base + self.rank(ch, lo)
            hi = base + self.rank(ch, hi)
            if lo >= hi:
                return (0, 0)
        return (lo, hi)

    def count(self, pattern: str) -> int:
        """Number of occurrences of ``pattern`` in the text."""
        lo, hi = self.backward_search(pattern)
        return hi - lo

    def _lf(self, row: int) -> int:
        ch = self._bwt[row]
        return self._c_table[ch] + self.rank(ch, row)

    def suffix_position(self, row: int) -> int:
        """Text offset of the suffix in BWT row ``row`` (LF-walk to a sample)."""
        steps = 0
        while row not in self._sa_samples:
            row = self._lf(row)
            steps += 1
            self.lf_steps += 1
        return (self._sa_samples[row] + steps) % len(self._bwt)

    def locate(self, pattern: str, limit: int | None = None) -> list[int]:
        """Sorted text offsets where ``pattern`` occurs (up to ``limit``)."""
        lo, hi = self.backward_search(pattern)
        rows = range(lo, hi if limit is None else min(hi, lo + limit))
        return sorted(self.suffix_position(row) for row in rows)

    def reset_counters(self) -> None:
        """Zero the access counters used for trace derivation."""
        self.occ_lookups = 0
        self.lf_steps = 0
