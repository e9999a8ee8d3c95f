"""Greedy incremental sequence clustering (the CLUSTER benchmark)."""

from repro.genomics.cluster.ngia import Cluster, ClusteringResult, greedy_cluster
from repro.genomics.cluster.kmer_filter import (
    kmer_profile,
    shared_kmer_count,
    short_word_bound,
)
from repro.genomics.cluster.packing import pack_dna, unpack_dna

__all__ = [
    "Cluster",
    "ClusteringResult",
    "greedy_cluster",
    "kmer_profile",
    "shared_kmer_count",
    "short_word_bound",
    "pack_dna",
    "unpack_dna",
]
