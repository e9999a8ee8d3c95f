"""Tests for RunStats bookkeeping and derived metrics."""

import pytest

from repro.core.runner import run_benchmark
from repro.isa.instructions import (
    MemAccess,
    MemSpace,
    OpClass,
    WarpInstruction,
)
from repro.sim.config import GPUConfig
from repro.sim.replay import TraceCounts
from repro.sim.stats import (
    OCCUPANCY_BUCKETS,
    RunStats,
    StallReason,
    occupancy_bucket,
)


def credit(stats, *instrs):
    """Count ``instrs`` as trace instructions and credit the totals to
    ``stats``, as a finished run does."""
    counts = TraceCounts()
    for instr in instrs:
        counts.count(instr)
    counts.merge_into(stats)
    return stats


def fp8():
    """One FP instruction with 8 active lanes."""
    return WarpInstruction(OpClass.FP, mask=0xFF)


def load(space, lines):
    return WarpInstruction(OpClass.LDST, mem=MemAccess(space, lines))


class TestOccupancyBucket:
    @pytest.mark.parametrize("lanes,bucket", [
        (1, "W1-4"), (4, "W1-4"), (5, "W5-8"),
        (16, "W13-16"), (29, "W29-32"), (32, "W29-32"),
    ])
    def test_boundaries(self, lanes, bucket):
        assert occupancy_bucket(lanes) == bucket

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            occupancy_bucket(0)
        with pytest.raises(ValueError):
            occupancy_bucket(33)

    def test_eight_buckets(self):
        assert len(OCCUPANCY_BUCKETS) == 8


class TestCounting:
    def test_count_instruction_with_repeat(self):
        stats = credit(RunStats(), WarpInstruction(OpClass.INT, repeat=5))
        assert stats.instructions == 5
        assert stats.op_mix["int"] == 5
        assert stats.warp_occupancy["W29-32"] == 5

    def test_count_memory(self):
        stats = credit(RunStats(), load(MemSpace.GLOBAL, (1, 2, 3)),
                       load(MemSpace.SHARED, (0,)))
        assert stats.mem_fractions() == {"global": 0.75, "shared": 0.25}

    def test_add_stall_ignores_nonpositive(self):
        stats = RunStats()
        stats.add_stall(StallReason.MEMORY, 0)
        stats.add_stall(StallReason.MEMORY, -5)
        assert stats.stalls == {}

    def test_stall_breakdown_normalized(self):
        stats = RunStats()
        stats.add_stall(StallReason.MEMORY, 30)
        stats.add_stall(StallReason.IDLE, 10)
        breakdown = stats.stall_breakdown()
        assert breakdown["long_memory_latency"] == 0.75
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_per_sm_counts_sum_to_total(self):
        stats = run_benchmark("NW", config=GPUConfig(num_sms=8))
        assert sum(stats.sm_instructions.values()) == stats.instructions


class TestDerivedMetrics:
    def test_ipc(self):
        stats = RunStats(cycles=100, instructions=250)
        assert stats.ipc == 2.5

    def test_ipc_zero_cycles(self):
        assert RunStats().ipc == 0.0

    def test_empty_fractions(self):
        stats = RunStats()
        assert stats.op_fractions() == {}
        assert stats.mem_fractions() == {}
        assert stats.stall_breakdown() == {}
        assert sum(stats.occupancy_fractions().values()) == 0.0

    def test_times(self):
        stats = RunStats(
            kernel_cycles=100, pci_cycles=50, launch_overhead_cycles=20
        )
        assert stats.device_time() == 120
        assert stats.total_time() == 170

    def test_dram_utilization_capped(self):
        stats = RunStats(cycles=10)
        stats.dram.data_cycles = 100
        assert stats.dram_utilization() == 1.0


class TestMerge:
    def test_merge_accumulates_everything(self):
        a = credit(RunStats(cycles=10, instructions=5), fp8())
        a.add_stall(StallReason.SYNC, 3)
        a.kernel_timeline.append({"kernel": "k", "start": 0, "end": 5,
                                  "ctas": 1, "origin": "host"})
        b = credit(RunStats(cycles=20, instructions=7), fp8())
        b.add_stall(StallReason.SYNC, 7)
        a.merge(b)
        assert a.cycles == 30
        assert a.op_mix["fp"] == 2
        assert a.stalls["synchronization"] == 10
        assert len(a.kernel_timeline) == 1


class TestKernelProfileReport:
    def test_profile_from_timeline(self):
        from repro.core.report import format_kernel_profile

        stats = RunStats()
        stats.kernel_timeline = [
            {"kernel": "a", "start": 0, "end": 10, "ctas": 1,
             "origin": "host"},
            {"kernel": "a", "start": 20, "end": 26, "ctas": 1,
             "origin": "host"},
            {"kernel": "b", "start": 5, "end": 105, "ctas": 2,
             "origin": "device"},
        ]
        text = format_kernel_profile(stats)
        lines = text.split("\n")
        # Sorted by total time: b (100) before a (16).
        assert lines[2].startswith("b")
        assert "device" in lines[2]
        assert "2" in lines[3]  # kernel a: 2 calls

    def test_empty_timeline(self):
        from repro.core.report import format_kernel_profile

        assert "no kernels" in format_kernel_profile(RunStats())
