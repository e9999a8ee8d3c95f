"""Tests for the trace builder and the coalescer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.instructions import MemSpace, OpClass
from repro.isa.trace import TraceBuilder, lines_for_stride


class TestCoalescer:
    def test_unit_stride_coalesces_to_one_line(self):
        # 32 lanes x 4B at stride 4 = 128B = exactly one line.
        assert lines_for_stride(0, 4, 32) == (0,)

    def test_unaligned_unit_stride_touches_two_lines(self):
        assert lines_for_stride(64, 4, 32) == (0, 1)

    def test_large_stride_one_line_per_lane(self):
        lines = lines_for_stride(0, 128, 32)
        assert len(lines) == 32

    def test_medium_stride(self):
        # Stride 32B: 4 lanes per line -> 8 lines for a full warp.
        assert len(lines_for_stride(0, 32, 32)) == 8

    def test_rejects_no_lanes(self):
        with pytest.raises(ValueError):
            lines_for_stride(0, 4, 0)

    def test_lines_sorted_unique(self):
        lines = lines_for_stride(1000, 96, 32)
        assert list(lines) == sorted(set(lines))

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=512),
           st.integers(min_value=1, max_value=32))
    @settings(max_examples=60)
    def test_line_count_bounded_by_lanes(self, base, stride, lanes):
        # Each 4-byte lane access can straddle at most two lines.
        lines = lines_for_stride(base, stride, lanes)
        assert 1 <= len(lines) <= 2 * lanes


class TestTraceBuilder:
    def test_mask_inherited(self):
        b = TraceBuilder()
        b.set_lanes(5)
        assert b.ints().active_lanes == 5
        assert b.ld_shared().active_lanes == 5

    def test_set_lanes_validated(self):
        b = TraceBuilder()
        with pytest.raises(ValueError):
            b.set_lanes(0)
        with pytest.raises(ValueError):
            b.set_lanes(33)

    def test_alu_repeat(self):
        b = TraceBuilder()
        assert b.ints(7).repeat == 7
        assert b.fps(3).op is OpClass.FP
        assert b.sfu().op is OpClass.SFU

    def test_memory_spaces(self):
        b = TraceBuilder()
        assert b.ld_global([1]).mem.space is MemSpace.GLOBAL
        assert b.st_global([1]).mem.store
        assert b.ld_local([1]).mem.space is MemSpace.LOCAL
        assert b.ld_const([1]).mem.space is MemSpace.CONST
        assert b.ld_tex([1]).mem.space is MemSpace.TEX
        assert b.ld_param([1]).mem.space is MemSpace.PARAM
        assert b.ld_shared().mem.space is MemSpace.SHARED
        assert b.st_shared().mem.store

    def test_control_ops(self):
        b = TraceBuilder()
        assert b.branch().op is OpClass.CTRL
        assert b.barrier().op is OpClass.SYNC
        assert b.device_sync().op is OpClass.DEVSYNC
        assert b.exit().op is OpClass.EXIT

    def test_launch_carries_child(self):
        b = TraceBuilder()
        spec = object()
        instr = b.launch(spec)
        assert instr.op is OpClass.LAUNCH
        assert instr.child is spec


class TestSharedInstructions:
    """Address-free builder calls return one interned instance each."""

    SHAPES = [
        lambda b: b.ints(3), lambda b: b.fps(2), lambda b: b.sfu(),
        lambda b: b.branch(), lambda b: b.barrier(),
        lambda b: b.device_sync(), lambda b: b.exit(),
        lambda b: b.ld_shared(), lambda b: b.st_shared(),
    ]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_equal_calls_share_one_object(self, shape):
        a, b = TraceBuilder(), TraceBuilder()
        a.set_lanes(7)
        b.set_lanes(7)
        assert shape(a) is shape(b)
        assert shape(a) is shape(a)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_different_mask_is_another_object(self, shape):
        a, b = TraceBuilder(), TraceBuilder()
        b.set_lanes(9)
        assert shape(a) is not shape(b)
        assert shape(b).active_lanes == 9

    def test_repeat_op_and_store_are_part_of_the_key(self):
        b = TraceBuilder()
        assert b.ints(3) is not b.ints(4)
        assert b.ints(3) is not b.fps(3)
        assert b.branch() is not b.barrier()
        assert b.ld_shared() is not b.st_shared()
        assert not b.ld_shared().mem.store
        assert b.st_shared().mem.store

    def test_invalid_repeat_still_rejected(self):
        with pytest.raises(ValueError):
            TraceBuilder().ints(0)

    def test_launch_and_addressed_accesses_are_never_shared(self):
        b = TraceBuilder()
        spec = object()
        assert b.launch(spec) is not b.launch(spec)
        for op in (b.ld_global, b.st_global, b.ld_local, b.st_local,
                   b.ld_const, b.ld_tex, b.ld_param):
            first, second = op([4]), op([4])
            assert first is not second
            assert first.mem is not second.mem
