"""Tests for suffix array, BWT, FM-index, and the read aligner."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.synth import random_dna, sample_reads
from repro.genomics.index import (
    FMIndex,
    ReadAligner,
    bwt_from_sa,
    inverse_bwt,
    suffix_array,
)
from repro.genomics.sequence import Sequence

dna = st.text(alphabet="ACGT", min_size=1, max_size=60)
text_no_sentinel = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1, max_size=40,
)


def naive_suffix_array(text: str) -> list[int]:
    return sorted(range(len(text)), key=lambda i: text[i:])


class TestSuffixArray:
    def test_banana(self):
        assert suffix_array("banana") == naive_suffix_array("banana")

    def test_empty_and_single(self):
        assert suffix_array("") == []
        assert suffix_array("x") == [0]

    def test_repetitive(self):
        text = "abab" * 8
        assert suffix_array(text) == naive_suffix_array(text)

    def test_all_same_character(self):
        text = "a" * 20
        assert suffix_array(text) == list(range(19, -1, -1))

    @given(text_no_sentinel)
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, text):
        assert suffix_array(text) == naive_suffix_array(text)


class TestBWT:
    def test_known_value(self):
        assert bwt_from_sa("banana") == "annb$aa"

    def test_rejects_sentinel_in_text(self):
        with pytest.raises(ValueError):
            bwt_from_sa("ba$na")

    def test_inverse_requires_one_sentinel(self):
        with pytest.raises(ValueError):
            inverse_bwt("abc")
        with pytest.raises(ValueError):
            inverse_bwt("a$b$")

    def test_roundtrip_known(self):
        assert inverse_bwt("annb$aa") == "banana"

    @given(text_no_sentinel)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, text):
        assert inverse_bwt(bwt_from_sa(text)) == text

    @given(text_no_sentinel)
    @settings(max_examples=40, deadline=None)
    def test_bwt_is_permutation(self, text):
        bwt = bwt_from_sa(text)
        assert sorted(bwt) == sorted(text + "$")


class TestFMIndex:
    def test_count_matches_str_count_with_overlaps(self):
        text = "banana" * 4
        fm = FMIndex(text)
        # str.count misses overlaps; count manually.
        expected = sum(
            1 for i in range(len(text)) if text.startswith("ana", i)
        )
        assert fm.count("ana") == expected

    def test_absent_pattern(self):
        fm = FMIndex("banana")
        assert fm.count("zzz") == 0
        assert fm.locate("zzz") == []

    def test_empty_pattern_matches_everywhere(self):
        fm = FMIndex("abc")
        assert fm.count("") == 4  # including the sentinel row

    def test_locate_positions_correct(self):
        text = "abracadabra"
        fm = FMIndex(text)
        assert fm.locate("abra") == [0, 7]
        assert fm.locate("a") == [0, 3, 5, 7, 10]

    def test_locate_limit(self):
        fm = FMIndex("aaaaaaaa")
        assert len(fm.locate("a", limit=3)) == 3

    def test_full_text_found(self):
        fm = FMIndex("mississippi")
        assert fm.locate("mississippi") == [0]

    def test_sampling_rates_validated(self):
        with pytest.raises(ValueError):
            FMIndex("abc", occ_rate=0)

    def test_counters_track_work(self):
        fm = FMIndex("banana" * 10)
        fm.reset_counters()
        fm.locate("ana")
        assert fm.occ_lookups > 0

    @given(dna, st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_count_locate_consistent(self, text, k):
        fm = FMIndex(text)
        pattern = text[:k]
        positions = fm.locate(pattern)
        assert len(positions) == fm.count(pattern)
        for pos in positions:
            assert text[pos : pos + len(pattern)] == pattern

    @given(dna, st.sampled_from([1, 3, 64]))
    @settings(max_examples=40, deadline=None)
    def test_rank_counts_the_bwt_prefix(self, text, occ_rate):
        """Checkpoint plus the counted stretch after it == a plain count,
        for every row (both ends included) and every character, absent
        ones and the sentinel too."""
        fm = FMIndex(text, occ_rate=occ_rate)
        bwt = bwt_from_sa(text)
        for ch in "ACGTN$":
            for row in range(len(bwt) + 1):
                assert fm.rank(ch, row) == bwt[:row].count(ch)

    @given(dna)
    @settings(max_examples=30, deadline=None)
    def test_every_suffix_locatable(self, text):
        fm = FMIndex(text)
        for start in range(0, len(text), max(1, len(text) // 4)):
            pattern = text[start:]
            assert start in fm.locate(pattern)


class TestReadAligner:
    @pytest.fixture(scope="class")
    def reference(self):
        return Sequence("ref", random_dna(4000, seed=42))

    @pytest.fixture(scope="class")
    def aligner(self, reference):
        return ReadAligner(reference)

    def test_maps_exact_forward_read(self, reference, aligner):
        read = Sequence("r", reference.residues[100:180])
        mapping = aligner.map_read(read)
        assert mapping is not None
        assert mapping.position == 100
        assert mapping.strand == "+"
        assert mapping.cigar == "80M"

    def test_maps_reverse_strand_read(self, reference, aligner):
        fragment = Sequence("r", reference.residues[500:580])
        mapping = aligner.map_read(fragment.reverse_complement())
        assert mapping is not None
        assert mapping.position == 500
        assert mapping.strand == "-"

    def test_maps_read_with_mismatches(self, reference, aligner):
        residues = list(reference.residues[1000:1080])
        residues[10] = "A" if residues[10] != "A" else "C"
        residues[60] = "G" if residues[60] != "G" else "T"
        mapping = aligner.map_read(Sequence("r", "".join(residues)))
        assert mapping is not None
        assert mapping.position == 1000

    def test_random_read_unmapped(self, aligner):
        mapping = aligner.map_read(Sequence("r", random_dna(80, seed=777)))
        assert mapping is None

    def test_batch_recovers_sampled_positions(self, reference):
        aligner = ReadAligner(reference)
        records = sample_reads(reference, 20, 70, seed=9, error_rate=0.01)
        correct = 0
        for record in records:
            true_pos = int(
                record.sequence.description.split()[0].split("=")[1]
            )
            mapping = aligner.map_read(record.sequence)
            if mapping and abs(mapping.position - true_pos) <= 3:
                correct += 1
        assert correct >= 18

    def test_stats_accumulate(self, reference):
        aligner = ReadAligner(reference)
        read = Sequence("r", reference.residues[0:60])
        aligner.map_read(read)
        assert aligner.stats.reads == 1
        assert aligner.stats.mapped == 1
        assert aligner.stats.seeds_extracted > 0
        assert aligner.stats.candidates_extended > 0

    def test_mapq_reasonable_for_unique_hit(self, reference, aligner):
        read = Sequence("r", reference.residues[2000:2080])
        mapping = aligner.map_read(read)
        assert mapping is not None
        assert 0 <= mapping.mapq <= 42

    def test_repetitive_reference_lowers_mapq(self):
        unit = random_dna(90, seed=5)
        reference = Sequence("rep", unit * 8)
        aligner = ReadAligner(reference)
        mapping = aligner.map_read(Sequence("r", unit[:80]))
        assert mapping is not None
        unique_ref = Sequence("uniq", random_dna(720, seed=6))
        unique_aligner = ReadAligner(unique_ref)
        unique_map = unique_aligner.map_read(
            Sequence("r", unique_ref.residues[50:130])
        )
        assert unique_map.mapq >= mapping.mapq

    def test_parameters_validated(self, reference):
        with pytest.raises(ValueError):
            ReadAligner(reference, seed_length=0)


class TestSuffixArrayImplementations:
    def test_numpy_matches_python(self):
        from repro.genomics.index.sa import (
            suffix_array_numpy,
            suffix_array_python,
        )
        from repro.data.synth import random_dna

        for n in (0, 1, 2, 50, 500):
            text = random_dna(n, seed=n)
            assert suffix_array_numpy(text) == suffix_array_python(text)

    @given(text_no_sentinel)
    @settings(max_examples=40, deadline=None)
    def test_numpy_matches_python_property(self, text):
        from repro.genomics.index.sa import (
            suffix_array_numpy,
            suffix_array_python,
        )

        assert suffix_array_numpy(text) == suffix_array_python(text)


class TestPrealignmentFilter:
    def test_filter_preserves_true_mappings(self):
        reference = Sequence("ref", random_dna(4000, seed=42))
        plain = ReadAligner(reference)
        filtered = ReadAligner(reference, prefilter_k=6)
        records = sample_reads(reference, 15, 70, seed=10, error_rate=0.01)
        for record in records:
            a = plain.map_read(record.sequence)
            b = filtered.map_read(record.sequence)
            if a is not None:
                assert b is not None
                assert b.position == a.position

    def test_filter_reduces_extensions(self):
        unit = random_dna(60, seed=11)
        # A noisy repeat: many candidate loci, most beyond k edits.
        parts = [unit] + [
            random_dna(60, seed=12 + i) for i in range(20)
        ]
        reference = Sequence("rep", "".join(parts) + unit)
        filtered = ReadAligner(reference, prefilter_k=2)
        plain = ReadAligner(reference)
        read = Sequence("r", unit)
        filtered.map_read(read)
        plain.map_read(read)
        assert filtered.stats.candidates_extended <= \
            plain.stats.candidates_extended
        # And the filter actually fired somewhere across a read batch.
        records = sample_reads(reference, 10, 60, seed=13,
                               error_rate=0.02)
        for record in records:
            filtered.map_read(record.sequence)
        assert filtered.stats.candidates_filtered >= 0

    def test_negative_k_rejected(self):
        reference = Sequence("ref", random_dna(500, seed=14))
        with pytest.raises(ValueError):
            ReadAligner(reference, prefilter_k=-1)
