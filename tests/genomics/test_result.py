"""Tests for AlignmentResult and CIGAR utilities."""

import pytest

from repro.genomics.align.result import (
    AlignmentResult,
    compress_ops,
    parse_cigar,
)


class TestParseCigar:
    def test_simple(self):
        assert parse_cigar("5M2I3D") == [(5, "M"), (2, "I"), (3, "D")]

    def test_empty(self):
        assert parse_cigar("") == []

    @pytest.mark.parametrize("bad", ["M5", "5", "5Z", "5M3", "-3M", "5m"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_cigar(bad)


class TestCompressOps:
    def test_run_length_encoding(self):
        assert compress_ops(["M", "M", "I", "M"]) == "2M1I1M"

    def test_empty(self):
        assert compress_ops([]) == ""

    def test_roundtrip(self):
        ops = ["M"] * 3 + ["D"] * 2 + ["M"]
        cigar = compress_ops(ops)
        expanded = []
        for count, op in parse_cigar(cigar):
            expanded.extend([op] * count)
        assert expanded == ops


def make_result(**overrides):
    defaults = dict(
        score=10,
        cigar="3M",
        query_start=0,
        query_end=3,
        target_start=0,
        target_end=3,
        aligned_query="ACG",
        aligned_target="ACG",
    )
    defaults.update(overrides)
    return AlignmentResult(**defaults)


class TestAlignmentResult:
    def test_identity_and_matches(self):
        r = make_result(aligned_target="ACT")
        assert r.matches() == 2
        assert r.identity() == pytest.approx(2 / 3)

    def test_length(self):
        assert make_result().length == 3

    def test_validates_query_span(self):
        with pytest.raises(ValueError, match="query span"):
            make_result(query_end=5)

    def test_validates_target_span(self):
        with pytest.raises(ValueError, match="target span"):
            make_result(cigar="2M1I", aligned_query="ACG",
                        aligned_target="AC-")

    def test_gap_columns_not_matches(self):
        r = make_result(
            cigar="1M1I1M",
            aligned_query="ACG",
            aligned_target="A-G",
            target_end=2,
        )
        assert r.matches() == 2
