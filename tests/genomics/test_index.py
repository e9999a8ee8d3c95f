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


class _NaiveFM:
    """Brute-force FM-index: sorted suffixes, plain counts, no sampling."""

    def __init__(self, text: str, sa_rate: int):
        self.text = text + "$"
        self.sa = naive_suffix_array(self.text)
        self.bwt = "".join(self.text[i - 1] for i in self.sa)
        self.sa_rate = sa_rate

    def search(self, pattern: str) -> tuple[int, int]:
        rows = [
            row for row, i in enumerate(self.sa)
            if self.text.startswith(pattern, i)
        ]
        return (rows[0], rows[-1] + 1) if rows else (0, 0)

    def search_ranks(self, pattern: str) -> int:
        """Ranks a backward search reads: two per character consumed,
        stopping at a character absent from the text or at the first
        suffix with no occurrence."""
        ranks = 0
        for i in range(len(pattern) - 1, -1, -1):
            if pattern[i] not in self.text:
                break
            ranks += 2
            if self.search(pattern[i:]) == (0, 0):
                break
        return ranks

    def lf_walk(self, row: int) -> int:
        """LF steps from ``row`` to the first row sampled at ``sa_rate``."""
        steps = 0
        while row % self.sa_rate:
            ch = self.bwt[row]
            row = sum(c < ch for c in self.bwt) + self.bwt[:row].count(ch)
            steps += 1
        return steps


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

    @given(
        st.one_of(dna, text_no_sentinel),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=70),
        st.integers(min_value=1, max_value=20),
        st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
    )
    @settings(max_examples=80, deadline=None)
    def test_count_locate_consistent(self, text, k, occ_rate, sa_rate, limit):
        """``backward_search``, ``count`` and ``locate`` — and the
        ``occ_lookups``/``lf_steps`` they charge — equal a brute-force
        index, for prefixes (which occur) and reversed prefixes (which
        may not) of random texts at random sampling rates."""
        fm = FMIndex(text, occ_rate=occ_rate, sa_rate=sa_rate)
        naive = _NaiveFM(text, sa_rate)
        for pattern in (text[:k], text[:k][::-1] + "x", "$"):
            lo, hi = naive.search(pattern)
            fm.reset_counters()
            assert fm.backward_search(pattern) == (lo, hi)
            assert fm.occ_lookups == naive.search_ranks(pattern)
            assert fm.count(pattern) == hi - lo
            fm.reset_counters()
            positions = fm.locate(pattern, limit=limit)
            end = hi if limit is None else min(hi, lo + limit)
            assert positions == sorted(naive.sa[lo:end])
            steps = sum(naive.lf_walk(row) for row in range(lo, end))
            assert fm.lf_steps == steps
            assert fm.occ_lookups == naive.search_ranks(pattern) + steps
            for pos in positions:
                assert naive.text[pos : pos + len(pattern)] == pattern

    @given(
        st.one_of(dna, text_no_sentinel),
        st.one_of(st.sampled_from([1, 3, 64]), st.integers(1, 300)),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_counts_the_bwt_prefix(self, text, occ_rate, sa_rate):
        """Checkpoint plus the counted stretch after it == a plain count,
        for every row (both ends included) and every character, absent
        ones and the sentinel too; each rank is one ``occ_lookup``, and
        every row's LF walk to a sample matches the brute-force walk."""
        fm = FMIndex(text, occ_rate=occ_rate, sa_rate=sa_rate)
        naive = _NaiveFM(text, sa_rate)
        for ch in set("ACGTN$az") | set(text):
            for row in range(len(naive.bwt) + 1):
                assert fm.rank(ch, row) == naive.bwt[:row].count(ch)
        assert fm.occ_lookups == len(set("ACGTN$az") | set(text)) * (
            len(naive.bwt) + 1
        )
        for row in range(len(naive.bwt)):
            fm.reset_counters()
            assert fm.suffix_position(row) == naive.sa[row]
            assert fm.lf_steps == fm.occ_lookups == naive.lf_walk(row)

    @pytest.mark.parametrize("occ_rate", [255, 256, 257, 1000])
    def test_rank_across_wide_checkpoint_blocks(self, occ_rate):
        """Counts since a checkpoint outgrow a byte once blocks are
        longer than 256 rows."""
        text = "A" * 300 + random_dna(400, seed=3)
        fm = FMIndex(text, occ_rate=occ_rate)
        bwt = bwt_from_sa(text)
        for ch in "ACGT$":
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


def _work_counters(aligner: ReadAligner) -> dict:
    """Every counter a map_reads run leaves except ``mapped``."""
    counters = vars(aligner.stats).copy()
    del counters["mapped"]
    counters["lf_steps"] = aligner.index.lf_steps
    counters["occ_lookups"] = aligner.index.occ_lookups
    return counters


class TestSeedingPass:
    """``seed_reads`` leaves exactly the work counters of ``map_reads``."""

    def _assert_same_counters(self, reference, reads):
        mapped = ReadAligner(reference)
        mapped.map_reads(reads)
        seeded = ReadAligner(reference)
        assert seeded.seed_reads(reads) is seeded.stats
        assert _work_counters(seeded) == _work_counters(mapped)
        assert seeded.stats.mapped == 0
        return mapped

    @pytest.mark.parametrize("size", ["small", "medium"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nvb_datasets(self, size, seed):
        from repro.data.datasets import DatasetSize, nvb_dataset

        workload = nvb_dataset(DatasetSize(size), seed=seed)
        mapped = self._assert_same_counters(
            workload.reference, workload.read_sequences
        )
        assert mapped.stats.candidates_extended > 0

    def test_repetitive_reference_hits_the_seed_cap(self):
        unit = random_dna(90, seed=21)
        reference = Sequence("rep", unit * 12 + random_dna(200, seed=22))
        aligner = ReadAligner(reference)
        reads = [
            record.sequence
            for record in sample_reads(reference, 12, 70, seed=23)
        ]
        seeds = [
            seed
            for read in reads
            for residues in (read.residues,
                             read.reverse_complement().residues)
            for _, seed in aligner._seeds(residues)
        ]
        assert any(aligner.index.count(s) > aligner.max_seed_hits
                   for s in seeds)
        self._assert_same_counters(reference, reads)
