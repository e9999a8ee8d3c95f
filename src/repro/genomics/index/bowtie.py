"""Bowtie2-style seed-and-extend short-read aligner (NvBowtie stand-in).

Pipeline per read, matching the structure of Bowtie2/NvBowtie:

1. extract fixed-length seeds at a regular interval from the read and
   its reverse complement;
2. exact-match each seed with FM-index backward search and locate up to
   ``max_seed_hits`` occurrences (multi-seed heuristic);
3. convert seed hits to candidate alignment positions, deduplicate;
4. extend each candidate with semi-global DP of the full read against a
   reference window (steps 1-3 and the windowing run alone as the
   seeding stage, :meth:`ReadAligner.seed_reads`);
5. report the best alignment with a Bowtie2-style mapping quality
   derived from the best/second-best score gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.genomics.align.gotoh import semi_global
from repro.genomics.align.result import AlignmentResult
from repro.genomics.index.fm_index import FMIndex
from repro.genomics.scoring import ScoringScheme
from repro.genomics.sequence import Sequence


@dataclass(frozen=True)
class ReadMapping:
    """One reported read alignment."""

    read_name: str
    position: int  # 0-based reference offset of the alignment start
    strand: str  # "+" or "-"
    score: int
    cigar: str
    mapq: int
    alignment: AlignmentResult

    @property
    def is_reverse(self) -> bool:
        return self.strand == "-"


@dataclass
class AlignerStats:
    """Work counters the NvB kernel trace model consumes."""

    reads: int = 0
    mapped: int = 0
    seeds_extracted: int = 0
    seed_searches: int = 0
    candidates_extended: int = 0


class ReadAligner:
    """Map short reads against a reference with FM-index seeding."""

    def __init__(
        self,
        reference: Sequence,
        seed_length: int = 16,
        seed_interval: int = 8,
        max_seed_hits: int = 8,
        scheme: ScoringScheme | None = None,
        extension_padding: int = 8,
    ):
        if seed_length <= 0 or seed_interval <= 0:
            raise ValueError("seed_length and seed_interval must be positive")
        self.reference = reference
        self.seed_length = seed_length
        self.seed_interval = seed_interval
        self.max_seed_hits = max_seed_hits
        self.scheme = scheme or ScoringScheme.dna_default()
        self.extension_padding = extension_padding
        self.index = FMIndex(reference.residues)
        self.stats = AlignerStats()

    def _seeds(self, residues: str) -> list[tuple[int, str]]:
        """(offset, seed) pairs covering the read, including its tail."""
        k = self.seed_length
        if len(residues) < k:
            return [(0, residues)] if residues else []
        offsets = list(range(0, len(residues) - k + 1, self.seed_interval))
        tail = len(residues) - k
        if offsets[-1] != tail:
            offsets.append(tail)
        return [(off, residues[off : off + k]) for off in offsets]

    def _candidates(self, residues: str) -> set[int]:
        """Candidate alignment start positions from seed hits."""
        positions: set[int] = set()
        for offset, seed in self._seeds(residues):
            self.stats.seeds_extracted += 1
            self.stats.seed_searches += 1
            for hit in self.index.locate(seed, limit=self.max_seed_hits):
                start = hit - offset
                if -self.extension_padding <= start <= len(self.reference):
                    positions.add(max(0, start))
        return positions

    def _window(self, residues: str, start: int) -> tuple[int, str] | None:
        """The reference window a candidate at ``start`` extends into.

        ``None`` when the window is empty; otherwise the candidate
        counts as extended.
        """
        pad = self.extension_padding
        window_lo = max(0, start - pad)
        window_hi = min(len(self.reference), start + len(residues) + pad)
        window = self.reference.residues[window_lo:window_hi]
        if not window:
            return None
        self.stats.candidates_extended += 1
        return window_lo, window

    def _seed_read(self, read: Sequence) -> list[tuple[str, str, list]]:
        """Seeding stage of :meth:`map_read`: seed, search, locate, window.

        Returns ``(strand, residues, windows)`` per strand, where
        ``windows`` lists the ``(window_lo, window)`` of every candidate
        left to extend, in start order.
        """
        self.stats.reads += 1
        strands = []
        for strand, residues in (
            ("+", read.residues),
            ("-", read.reverse_complement().residues),
        ):
            windows = []
            for start in sorted(self._candidates(residues)):
                window = self._window(residues, start)
                if window is not None:
                    windows.append(window)
            strands.append((strand, residues, windows))
        return strands

    def seed_reads(self, reads: list[Sequence]) -> AlignerStats:
        """The seeding stage alone over a batch, without extension.

        Leaves the work counters (``stats`` except ``mapped``, and the
        index's ``occ_lookups``/``lf_steps``) exactly as
        :meth:`map_reads` would, at the cost of the FM-index walk only.
        """
        for read in reads:
            self._seed_read(read)
        return self.stats

    def map_read(self, read: Sequence, min_score: int | None = None) -> ReadMapping | None:
        """Best mapping of ``read``, or ``None`` if nothing clears ``min_score``.

        ``min_score`` defaults to a Bowtie2-like length-scaled threshold
        (60% of the maximum possible match score).
        """
        strands = self._seed_read(read)
        if min_score is None:
            max_match = self.scheme.score("A", "A")
            min_score = int(0.6 * max_match * len(read))

        best: ReadMapping | None = None
        second_score: int | None = None
        for strand, residues, windows in strands:
            for window_lo, window in windows:
                aln = semi_global(residues, window, self.scheme)
                position = window_lo + aln.target_start
                if best is None or aln.score > best.score or (
                    aln.score == best.score
                    and (position, strand) < (best.position, best.strand)
                ):
                    if best is not None:
                        second_score = (
                            best.score
                            if second_score is None
                            else max(second_score, best.score)
                        )
                    best = ReadMapping(
                        read_name=read.name,
                        position=position,
                        strand=strand,
                        score=aln.score,
                        cigar=aln.cigar,
                        mapq=0,
                        alignment=aln,
                    )
                elif second_score is None or aln.score > second_score:
                    second_score = aln.score

        if best is None or best.score < min_score:
            return None
        self.stats.mapped += 1
        mapq = _mapping_quality(best.score, second_score, len(read), self.scheme)
        return ReadMapping(
            read_name=best.read_name,
            position=best.position,
            strand=best.strand,
            score=best.score,
            cigar=best.cigar,
            mapq=mapq,
            alignment=best.alignment,
        )

    def map_reads(self, reads: list[Sequence]) -> list[ReadMapping | None]:
        """Map a batch of reads (the unit of work of one kernel launch)."""
        return [self.map_read(read) for read in reads]


def _mapping_quality(
    best: int, second: int | None, read_length: int, scheme: ScoringScheme
) -> int:
    """Bowtie2-flavoured MAPQ: scaled best/second-best gap, capped at 42."""
    perfect = scheme.score("A", "A") * read_length
    if perfect <= 0:
        return 0
    if second is None:
        return 42 if best >= 0.9 * perfect else 30
    gap = max(0, best - second)
    return min(42, int(42 * gap / max(1, perfect)) + (10 if best > second else 0))
