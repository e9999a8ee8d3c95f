"""Tests for the CTA occupancy calculator."""

import pytest

from repro.sim.config import GPUConfig
from repro.sim.kernel import KernelProgram
from repro.sim.occupancy import ctas_per_sm, occupancy_report


def kernel(threads=128, regs=32, smem=0, const=0):
    return KernelProgram("k", threads, regs, smem, const)


class TestLimits:
    def test_thread_limited(self):
        config = GPUConfig()
        report = occupancy_report(config, kernel(threads=512, regs=8))
        assert report.ctas_per_sm == 3  # 1536 / 512
        assert report.limiter == "threads"

    def test_register_limited(self):
        config = GPUConfig()
        report = occupancy_report(config, kernel(threads=128, regs=84))
        assert report.ctas_per_sm == 6  # 65536 // (84*128)
        assert report.limiter == "registers"

    def test_shared_memory_limited(self):
        config = GPUConfig()
        report = occupancy_report(config, kernel(regs=8, smem=30 * 1024))
        assert report.ctas_per_sm == 3  # 100KB // 30KB
        assert report.limiter == "shared_memory"

    def test_cta_cap(self):
        config = GPUConfig()
        report = occupancy_report(config, kernel(threads=32, regs=8))
        assert report.ctas_per_sm == config.max_ctas_per_sm
        assert report.limiter == "cta"

    def test_machine_without_shared_memory(self):
        """Zero shared memory per SM is a valid machine: a kernel that
        uses none runs at its other limits, one that does fits nowhere."""
        config = GPUConfig(shared_mem_per_sm=0)
        report = occupancy_report(config, kernel(threads=512, regs=8))
        assert (report.ctas_per_sm, report.shared_utilization) == (3, 0.0)
        with pytest.raises(ValueError, match="does not fit"):
            ctas_per_sm(config, kernel(smem=1024))

    def test_kernel_too_big_raises(self):
        config = GPUConfig()
        with pytest.raises(ValueError, match="does not fit"):
            ctas_per_sm(config, kernel(smem=200 * 1024))


class TestUtilization:
    def test_fractions_in_unit_interval(self):
        config = GPUConfig()
        report = occupancy_report(
            config, kernel(regs=48, smem=10 * 1024, const=2048)
        )
        for value in (
            report.register_utilization,
            report.shared_utilization,
            report.constant_utilization,
            report.thread_utilization,
        ):
            assert 0.0 <= value <= 1.0

    def test_constant_utilization(self):
        config = GPUConfig()
        report = occupancy_report(config, kernel(const=32 * 1024))
        assert report.constant_utilization == pytest.approx(0.5)

    def test_register_utilization_matches_residency(self):
        config = GPUConfig()
        report = occupancy_report(config, kernel(threads=128, regs=84))
        expected = 6 * 84 * 128 / config.registers_per_sm
        assert report.register_utilization == pytest.approx(expected)


class TestScaling:
    def test_more_registers_more_ctas(self):
        small = GPUConfig(registers_per_sm=16384)
        big = GPUConfig(registers_per_sm=262144)
        k = kernel(threads=64, regs=64)
        assert ctas_per_sm(big, k) > ctas_per_sm(small, k)

    def test_kernel_program_validation(self):
        with pytest.raises(ValueError):
            KernelProgram("bad", cta_threads=0)
        with pytest.raises(ValueError):
            KernelProgram("bad", cta_threads=33)
