"""Tests for config presets and sweep helpers."""

import pytest

from repro.core.config_presets import (
    CACHE_SWEEP,
    CTA_SCALING,
    MEM_CONTROLLERS,
    NOC_BANDWIDTH_SWEEP,
    NOC_LATENCY_SWEEP,
    SCHEDULERS,
    TOPOLOGIES,
    baseline_config,
    scale_cta_resources,
    with_cache_sizes,
    with_controller,
    with_topology,
)
from repro.isa.instructions import WARP_SIZE


class TestBaseline:
    def test_table1_bolded_values(self):
        cfg = baseline_config()
        assert cfg.num_sms == 78
        assert WARP_SIZE == 32
        assert cfg.registers_per_sm == 65536
        assert cfg.max_ctas_per_sm == 32
        assert cfg.max_threads_per_sm == 1536
        assert cfg.shared_mem_per_sm == 100 * 1024
        assert cfg.l1.size_bytes == 128 * 1024
        assert cfg.l2.size_bytes == 4 * 1024 * 1024
        assert cfg.dram.controller == "frfcfs"
        assert cfg.scheduler == "lrr"

    def test_table2_bolded_values(self):
        cfg = baseline_config()
        assert cfg.noc.topology == "xbar"
        assert cfg.noc.channel_bytes == 40
        assert cfg.noc.router_delay == 0

    def test_overrides(self):
        assert baseline_config(num_sms=4).num_sms == 4


class TestSweepLists:
    def test_sweeps_contain_baseline(self):
        assert (128 * 1024, 4 * 1024 * 1024) in CACHE_SWEEP
        assert 1.0 in CTA_SCALING
        assert "frfcfs" in MEM_CONTROLLERS
        assert "lrr" in SCHEDULERS
        assert "xbar" in TOPOLOGIES
        assert 0 in NOC_LATENCY_SWEEP
        assert 40 in NOC_BANDWIDTH_SWEEP

    def test_cache_sweep_has_six_points(self):
        assert len(CACHE_SWEEP) == 6


class TestHelpers:
    def test_with_cache_sizes(self):
        cfg = with_cache_sizes(baseline_config(), 0, 128 * 1024)
        assert cfg.l1.disabled
        assert cfg.l2.size_bytes == 128 * 1024

    def test_with_controller(self):
        cfg = with_controller(baseline_config(), "fifo")
        assert cfg.dram.controller == "fifo"

    def test_with_topology(self):
        cfg = with_topology(baseline_config(), "mesh", router_delay=8,
                            channel_bytes=16)
        assert cfg.noc.topology == "mesh"
        assert cfg.noc.router_delay == 8
        assert cfg.noc.channel_bytes == 16

    def test_scale_cta_resources(self):
        half = scale_cta_resources(baseline_config(), 0.5)
        assert half.max_ctas_per_sm == 16
        assert half.max_threads_per_sm == 768
        assert half.registers_per_sm == 32768
        assert half.shared_mem_per_sm == 50 * 1024

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_cta_resources(baseline_config(), 0.0)

    def test_original_config_untouched(self):
        base = baseline_config()
        scale_cta_resources(base, 2.0)
        assert base.max_ctas_per_sm == 32
