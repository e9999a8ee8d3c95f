"""Tests for nGIA-style clustering, k-mer filters, and packing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.synth import random_dna, sequence_family
from repro.genomics.cluster import (
    greedy_cluster,
    kmer_profile,
    pack_dna,
    shared_kmer_count,
    short_word_bound,
    unpack_dna,
)
from repro.genomics.cluster.packing import packed_words
from repro.genomics.sequence import Sequence

dna = st.text(alphabet="ACGT", min_size=0, max_size=100)


class TestPacking:
    def test_roundtrip_simple(self):
        text = "ACGTACGTACGT"
        assert unpack_dna(pack_dna(text), len(text)) == text

    def test_sixteen_residues_per_word(self):
        assert len(pack_dna("A" * 16)) == 1
        assert len(pack_dna("A" * 17)) == 2

    def test_rejects_wildcard(self):
        with pytest.raises(ValueError, match="cannot pack"):
            pack_dna("ACGN")

    def test_empty(self):
        assert pack_dna("") == []
        assert unpack_dna([], 0) == ""

    def test_unpack_length_too_long(self):
        with pytest.raises(ValueError):
            unpack_dna(pack_dna("ACGT"), 20)

    def test_packed_words(self):
        assert packed_words(0) == 0
        assert packed_words(1) == 1
        assert packed_words(16) == 1
        assert packed_words(17) == 2

    @given(dna)
    @settings(max_examples=60)
    def test_roundtrip_property(self, text):
        assert unpack_dna(pack_dna(text), len(text)) == text

    @given(dna)
    @settings(max_examples=40)
    def test_packing_is_4x_compression(self, text):
        assert len(pack_dna(text)) == packed_words(len(text))


class TestKmerFilter:
    def test_profile_counts(self):
        profile = kmer_profile("ACACA", 2)
        assert profile["AC"] == 2
        assert profile["CA"] == 2

    def test_profile_rejects_bad_k(self):
        with pytest.raises(ValueError):
            kmer_profile("ACGT", 0)

    def test_shared_count_multiset(self):
        a = kmer_profile("ACACAC", 2)
        b = kmer_profile("ACAC", 2)
        # b has AC x2, CA x1; a has AC x3, CA x2 -> shared 3.
        assert shared_kmer_count(a, b) == 3

    def test_shared_count_symmetric(self):
        a = kmer_profile("ACGTACGT", 3)
        b = kmer_profile("CGTACG", 3)
        assert shared_kmer_count(a, b) == shared_kmer_count(b, a)

    def test_identical_sequences_pass_bound(self):
        text = random_dna(80, seed=3)
        profile = kmer_profile(text, 5)
        bound = short_word_bound(len(text), 5, 0.95)
        assert shared_kmer_count(profile, profile) >= bound

    def test_bound_clamps_at_zero(self):
        assert short_word_bound(20, 5, 0.1) == 0

    def test_bound_rejects_bad_identity(self):
        with pytest.raises(ValueError):
            short_word_bound(20, 5, 1.5)

    @given(st.text(alphabet="ACGT", min_size=30, max_size=80),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_bound_is_sound(self, text, n_mut):
        """A pair within the mutation budget always passes the filter.

        This is the counting argument the filter's correctness rests
        on: if it ever rejected a pair that meets the identity
        threshold, clustering would split true clusters.
        """
        k = 4
        mutated = list(text)
        for i in range(n_mut):
            pos = (i * 7919) % len(text)
            mutated[pos] = "A" if text[pos] != "A" else "C"
        mutated = "".join(mutated)
        identity = 1.0 - n_mut / len(text)
        bound = short_word_bound(len(text), k, identity)
        shared = shared_kmer_count(
            kmer_profile(text, k), kmer_profile(mutated, k)
        )
        assert shared >= bound


class TestGreedyCluster:
    def _family_workload(self):
        fams = []
        for f in range(3):
            fams.extend(
                sequence_family(5, 100, divergence=0.03, seed=f,
                                name_prefix=f"f{f}_")
            )
        return fams

    def test_families_cluster_together(self):
        result = greedy_cluster(self._family_workload(), identity=0.85)
        assert result.num_clusters == 3
        assignments = result.assignments()
        for f in range(3):
            family_ids = {assignments[f"f{f}_{i}"] for i in range(5)}
            assert len(family_ids) == 1

    def test_unrelated_sequences_stay_apart(self):
        seqs = [Sequence(f"r{i}", random_dna(100, seed=i)) for i in range(6)]
        result = greedy_cluster(seqs, identity=0.9)
        assert result.num_clusters == 6

    def test_representative_is_longest_member(self):
        seqs = [
            Sequence("long", "ACGTACGTACGTACGTACGT"),
            Sequence("short", "ACGTACGTACGTACGT"),
        ]
        result = greedy_cluster(seqs, identity=0.8)
        assert result.clusters[0].representative.name == "long"

    def test_identity_threshold_validated(self):
        with pytest.raises(ValueError):
            greedy_cluster([Sequence("s", "ACGT")], identity=0.0)

    def test_filters_count_work(self):
        result = greedy_cluster(self._family_workload(), identity=0.85)
        total = (
            result.prefilter_rejections
            + result.short_word_rejections
            + result.alignments_run
        )
        assert total > 0
        assert 0.0 <= result.filter_ratio() <= 1.0

    def test_trail_covers_every_sequence(self):
        seqs = self._family_workload()
        result = greedy_cluster(seqs, identity=0.85)
        assert len(result.trail) == len(seqs)
        indexes = sorted(r["index"] for r in result.trail)
        assert indexes == list(range(len(seqs)))

    def test_trail_totals_match_counters(self):
        result = greedy_cluster(self._family_workload(), identity=0.85)
        assert (
            sum(r["prefilter"] for r in result.trail)
            == result.prefilter_rejections
        )
        assert (
            sum(r["shortword"] for r in result.trail)
            == result.short_word_rejections
        )
        assert sum(r["aligned"] for r in result.trail) == result.alignments_run

    def test_every_sequence_assigned_exactly_once(self):
        seqs = self._family_workload()
        result = greedy_cluster(seqs, identity=0.85)
        members = [m.name for c in result.clusters for m in c.members]
        assert sorted(members) == sorted(s.name for s in seqs)

    def test_deterministic(self):
        seqs = self._family_workload()
        a = greedy_cluster(seqs, identity=0.85)
        b = greedy_cluster(seqs, identity=0.85)
        assert a.assignments() == b.assignments()

    def test_higher_identity_never_fewer_clusters(self):
        seqs = self._family_workload()
        low = greedy_cluster(seqs, identity=0.7).num_clusters
        high = greedy_cluster(seqs, identity=0.99).num_clusters
        assert high >= low
