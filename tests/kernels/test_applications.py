"""Integration tests: every benchmark application runs and is faithful."""

import dataclasses

import numpy as np
import pytest

from repro.data.datasets import DatasetSize, dataset_for
from repro.kernels import benchmark_names, build_application
from repro.sim import GPUSimulator
from repro.sim.config import GPUConfig


CONFIG = GPUConfig(num_sms=8)


def run(abbr, cdp=False, **options):
    app = build_application(abbr, cdp=cdp, **options)
    return GPUSimulator(CONFIG).run_application(app)


class TestAllApplicationsRun:
    @pytest.mark.parametrize("abbr", benchmark_names())
    @pytest.mark.parametrize("cdp", [False, True])
    def test_runs_to_completion(self, abbr, cdp):
        stats = run(abbr, cdp=cdp)
        assert stats.instructions > 0
        assert stats.kernel_cycles > 0
        assert stats.kernel_launches >= 1
        assert stats.memcpy_calls >= 1

    @pytest.mark.parametrize("abbr", benchmark_names())
    def test_cdp_variant_uses_device_launches(self, abbr):
        stats = run(abbr, cdp=True)
        assert stats.device_launches >= 1

    @pytest.mark.parametrize("abbr", benchmark_names())
    def test_noncdp_has_no_device_launches(self, abbr):
        stats = run(abbr, cdp=False)
        assert stats.device_launches == 0

    @pytest.mark.parametrize("abbr", benchmark_names())
    def test_deterministic(self, abbr):
        a = run(abbr)
        b = run(abbr)
        assert a.kernel_cycles == b.kernel_cycles
        assert a.instructions == b.instructions


class TestHostProgramShapes:
    def test_sw_kernel_calls_outnumber_pci(self):
        stats = run("SW")
        assert stats.kernel_launches > stats.memcpy_calls

    def test_nw_kernel_calls_outnumber_pci(self):
        stats = run("NW")
        assert stats.kernel_launches > stats.memcpy_calls

    def test_gasal_pci_outnumber_kernel_calls(self):
        for abbr in ("GG", "GL", "GKSW", "GSG"):
            stats = run(abbr)
            assert stats.memcpy_calls > stats.kernel_launches, abbr

    def test_nvb_launches_many_kernels(self):
        stats = run("NvB")
        assert stats.kernel_launches > 50

    def test_cdp_reduces_host_launches(self):
        for abbr in ("SW", "NW", "STAR", "NvB"):
            base = run(abbr, cdp=False)
            cdp = run(abbr, cdp=True)
            assert cdp.kernel_launches < base.kernel_launches, abbr


class TestFunctionalResults:
    def test_sw_alignment(self):
        app = build_application("SW")
        result = app.run_functional()
        assert result.score > 0
        assert result.identity() > 0.5

    def test_nw_alignment(self):
        app = build_application("NW")
        result = app.run_functional()
        assert result.query_end == len(app.workload.query)

    def test_star_msa(self):
        app = build_application("STAR")
        msa = app.run_functional()
        assert len(msa.rows) == len(app.workload.sequences)
        assert len({len(r) for r in msa.rows}) == 1

    def test_gasal_batch(self):
        app = build_application("GG")
        results = app.run_functional()
        assert len(results) == len(app.workload.queries)
        assert all(r.score is not None for r in results)

    def test_cluster(self):
        app = build_application("CLUSTER")
        result = app.run_functional()
        assert 1 <= result.num_clusters <= len(app.workload.sequences)
        # Families in the synthetic mixture must merge.
        assert result.num_clusters < len(app.workload.sequences)

    def test_pairhmm_matrix(self):
        app = build_application("PairHMM")
        matrix = app.run_functional()
        assert matrix.shape == (
            len(app.workload.reads), len(app.workload.haplotypes)
        )
        assert np.isfinite(matrix).all()

    def test_nvb_maps_most_reads(self):
        app = build_application("NvB")
        mappings, stats, index = app.run_functional()
        mapped = sum(1 for m in mappings if m is not None)
        assert mapped / len(mappings) > 0.9
        assert stats.reads == len(app.workload.reads)

    def test_nvb_functional_cached(self):
        app = build_application("NvB")
        first = app.run_functional()
        second = app.run_functional()
        assert first is second

    def test_nvb_trace_reads_the_seeding_counters(self):
        """The host program runs the seeding pass only: its memo holds
        the work counters a full mapping leaves, and no index or
        mapping."""
        from repro.kernels import nvb_kernel

        nvb_kernel._FUNCTIONAL_CACHE.clear()
        app = build_application("NvB")
        list(app.host_program())
        stats, lf_steps = nvb_kernel._FUNCTIONAL_CACHE[app.workload]
        _, mapped_stats, index = app.run_functional()
        assert lf_steps == index.lf_steps
        assert stats.mapped == 0
        assert dataclasses.replace(stats, mapped=mapped_stats.mapped) == \
            mapped_stats


class TestAblationVariants:
    def test_nw_no_shared_slower(self):
        fast = run("NW", use_shared=True)
        slow = run("NW", use_shared=False)
        assert slow.device_time() > fast.device_time()

    def test_pairhmm_no_shared_much_slower(self):
        fast = run("PairHMM", use_shared=True)
        slow = run("PairHMM", use_shared=False)
        assert slow.device_time() > 10 * fast.device_time()

    def test_no_shared_variant_drops_shared_accesses(self):
        stats = run("PairHMM", use_shared=False)
        assert stats.mem_fractions().get("shared", 0.0) == 0.0


class TestWorkloadOverride:
    def test_custom_workload_accepted(self):
        workload = dataset_for("SW", DatasetSize.SMALL, seed=99)
        app = build_application("SW", workload=workload)
        assert app.workload is workload

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            build_application("BLAST")


class TestCharacterizationSignatures:
    """The per-benchmark microarchitectural signatures the paper reports."""

    def test_gasal_local_memory_dominant(self):
        for abbr in ("GG", "GL", "GSG"):
            mix = run(abbr).mem_fractions()
            assert mix["local"] > 0.9, abbr

    def test_nw_pairhmm_shared_dominant(self):
        for abbr in ("NW", "PairHMM"):
            mix = run(abbr).mem_fractions()
            assert mix["shared"] > 0.85, abbr

    def test_pairhmm_is_fp_heavy(self):
        ops = run("PairHMM").op_fractions()
        assert ops["fp"] > ops["int"]

    def test_integer_dominant_elsewhere(self):
        for abbr in ("SW", "NW", "STAR", "GG", "CLUSTER", "NvB"):
            ops = run(abbr).op_fractions()
            assert ops["int"] > 0.5, abbr

    def test_cluster_dominated_by_narrow_warps(self):
        occ = run("CLUSTER").occupancy_fractions()
        assert occ["W1-4"] > 0.5

    def test_star_cdp_narrow_warps(self):
        occ = run("STAR", cdp=True).occupancy_fractions()
        assert occ["W1-4"] > 0.8

    def test_nw_full_warps(self):
        occ = run("NW").occupancy_fractions()
        assert occ["W29-32"] > 0.6

    def test_nvb_functional_done_dominates(self):
        breakdown = run("NvB").stall_breakdown()
        assert breakdown["functional_done"] > 0.5

    def test_sfu_instructions_rare(self):
        for abbr in benchmark_names():
            ops = run(abbr).op_fractions()
            assert ops.get("sfu", 0.0) < 0.05, abbr
