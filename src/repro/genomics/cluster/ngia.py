"""nGIA-style greedy incremental alignment-based clustering.

The pipeline mirrors the four components the paper credits to nGIA:

1. **pre-filter** — a candidate must be no shorter than
   ``identity * len(representative)`` (length ratio filter);
2. **short-word filter** — the k-mer counting bound from
   :mod:`repro.genomics.cluster.kmer_filter`;
3. **data packing** — representatives are stored 2-bit packed
   (:mod:`repro.genomics.cluster.packing`), as the GPU kernel does;
4. **greedy incremental alignment** — sequences are visited longest
   first; each joins the first cluster whose representative it matches
   at or above the identity threshold, else founds a new cluster.

Identity is computed from a banded global alignment, matching nGIA's
use of banded DP on the GPU.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.genomics.align.banded import banded_global
from repro.genomics.cluster.kmer_filter import (
    kmer_profile,
    shared_kmer_count,
    short_word_bound,
)
from repro.genomics.cluster.packing import pack_dna
from repro.genomics.scoring import ScoringScheme
from repro.genomics.sequence import Sequence


@dataclass
class Cluster:
    """One cluster: a representative plus its members (member 0 is the rep)."""

    representative: Sequence
    members: list[Sequence] = field(default_factory=list)
    packed: list[int] = field(default_factory=list, repr=False)
    profile: Counter | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class ClusteringResult:
    """Output of :func:`greedy_cluster` plus filter-effectiveness counters."""

    clusters: list[Cluster]
    identity: float
    word_length: int
    #: candidate pairs rejected by the length pre-filter
    prefilter_rejections: int = 0
    #: candidate pairs rejected by the short-word filter
    short_word_rejections: int = 0
    #: pairs that went through full banded alignment
    alignments_run: int = 0
    #: per-sequence work trail in processing order: dicts with keys
    #: ``index`` (input index), ``prefilter``, ``shortword``, ``aligned``
    #: (rejection/alignment counts) and ``align_rows`` (total DP rows) —
    #: consumed by the CLUSTER kernel trace model.
    trail: list = field(default_factory=list)

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def assignments(self) -> dict[str, int]:
        """Map sequence name -> cluster index."""
        out: dict[str, int] = {}
        for idx, cluster in enumerate(self.clusters):
            for member in cluster.members:
                out[member.name] = idx
        return out

    def filter_ratio(self) -> float:
        """Fraction of candidate pairs the filters removed."""
        total = (
            self.prefilter_rejections
            + self.short_word_rejections
            + self.alignments_run
        )
        if total == 0:
            return 0.0
        return 1.0 - self.alignments_run / total


def alignment_identity(
    query: Sequence, target: Sequence, scheme: ScoringScheme, band: int
) -> float:
    """Identity (matches / shorter length) from a banded global alignment."""
    shorter = min(len(query), len(target))
    if shorter == 0:
        return 0.0
    needed = max(band, abs(len(query) - len(target)) + 1)
    aln = banded_global(query, target, scheme, band=needed)
    return aln.matches() / shorter


def greedy_cluster(
    sequences: list[Sequence],
    identity: float = 0.9,
    word_length: int = 5,
    scheme: ScoringScheme | None = None,
    band: int = 16,
) -> ClusteringResult:
    """Cluster ``sequences`` at the given identity threshold.

    Follows nGIA/CD-HIT semantics: longest-first greedy assignment to
    the first matching representative.  Deterministic for fixed input
    (ties in length break by input order).
    """
    if not 0.0 < identity <= 1.0:
        raise ValueError("identity must be in (0, 1]")
    scheme = scheme or ScoringScheme.dna_default()

    order = sorted(
        range(len(sequences)), key=lambda i: (-len(sequences[i]), i)
    )
    result = ClusteringResult([], identity, word_length)

    for idx in order:
        seq = sequences[idx]
        profile = kmer_profile(seq, word_length)
        home = None
        record = {
            "index": idx,
            "prefilter": 0,
            "shortword": 0,
            "aligned": 0,
            "align_rows": 0,
        }
        for cluster in result.clusters:
            rep = cluster.representative
            # 1. length pre-filter: rep is always >= seq here, so only
            #    the ratio in one direction matters.
            if len(seq) < identity * len(rep):
                result.prefilter_rejections += 1
                record["prefilter"] += 1
                continue
            # 2. short-word filter.
            bound = short_word_bound(len(seq), word_length, identity)
            if shared_kmer_count(profile, cluster.profile) < bound:
                result.short_word_rejections += 1
                record["shortword"] += 1
                continue
            # 3. full (banded) alignment.
            result.alignments_run += 1
            record["aligned"] += 1
            record["align_rows"] += min(len(seq), len(rep))
            if alignment_identity(seq, rep, scheme, band) >= identity:
                home = cluster
                break
        result.trail.append(record)
        if home is None:
            result.clusters.append(
                Cluster(
                    representative=seq,
                    members=[seq],
                    packed=pack_dna(seq.residues),
                    profile=profile,
                )
            )
        else:
            home.members.append(seq)
    return result
