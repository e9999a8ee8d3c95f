"""Integration tests for the SM issue loop and the GPU simulator."""

import gc
import weakref

import pytest

from repro.core.runner import load_benchmark
from repro.data.datasets import DatasetSize
from repro.isa import TraceBuilder
from repro.sim import (
    Application,
    GPUConfig,
    GPUSimulator,
    HostLaunch,
    HostMemcpy,
    KernelLaunch,
    KernelProgram,
)
from repro.sim.gpu import SimulationDeadlock
from repro.sim.replay import replay_application
from repro.sim.stats import StallReason


class ScriptKernel(KernelProgram):
    """Kernel whose trace comes from a per-warp script function."""

    def __init__(self, script, cta_threads=64, **resources):
        super().__init__("script", cta_threads, **resources)
        self.script = script

    def warp_trace(self, ctx):
        yield from self.script(ctx)


def run_one(script, config=None, num_ctas=1, cta_threads=64, memcpys=True,
            **resources):
    class App(Application):
        name = "test"

        def host_program(self):
            if memcpys:
                yield HostMemcpy(4096, "h2d")
            yield HostLaunch(
                KernelLaunch(
                    ScriptKernel(script, cta_threads, **resources),
                    num_ctas=num_ctas,
                )
            )

    sim = GPUSimulator(config or GPUConfig(num_sms=2, num_mem_partitions=2))
    return sim.run_application(App())


class TestInstructionAccounting:
    def test_counts_and_mix(self):
        def script(ctx):
            b = TraceBuilder()
            yield b.ints(10)
            yield b.fps(5)
            yield b.sfu(1)
            yield b.exit()

        stats = run_one(script)
        # 2 warps per CTA x (10 + 5 + 1 + exit).
        assert stats.instructions == 2 * 17
        mix = stats.op_fractions()
        assert mix["int"] == pytest.approx(20 / 34)
        assert mix["fp"] == pytest.approx(10 / 34)

    def test_occupancy_histogram(self):
        def script(ctx):
            b = TraceBuilder()
            b.set_lanes(3)
            yield b.ints(4)
            b.set_lanes(32)
            yield b.ints(4)
            yield b.exit()

        stats = run_one(script)
        occ = stats.occupancy_fractions()
        assert occ["W1-4"] == pytest.approx(8 / 18)
        assert occ["W29-32"] == pytest.approx(10 / 18)

    def test_memory_mix_counts_transactions(self):
        def script(ctx):
            b = TraceBuilder()
            yield b.ld_global([1, 2, 3])
            yield b.ld_shared()
            yield b.exit()

        stats = run_one(script)
        mix = stats.mem_fractions()
        assert mix["global"] == pytest.approx(3 / 4)
        assert mix["shared"] == pytest.approx(1 / 4)

    def test_ipc_positive(self):
        def script(ctx):
            b = TraceBuilder()
            yield b.ints(100)
            yield b.exit()

        stats = run_one(script)
        assert 0 < stats.ipc


class TestMemorySystem:
    def test_l1_hit_after_miss(self):
        def script(ctx):
            b = TraceBuilder()
            yield b.ld_global([7])
            yield b.ld_global([7])
            yield b.exit()

        stats = run_one(script, cta_threads=32)
        assert stats.l1.load_misses == 1
        assert stats.l1.hits == 1

    def test_memory_stalls_attributed(self):
        def script(ctx):
            b = TraceBuilder()
            for i in range(20):
                yield b.ld_global([100 + i * 64])
            yield b.exit()

        stats = run_one(script, cta_threads=32)
        assert stats.stalls.get(StallReason.MEMORY.value, 0) > 0

    def test_perfect_memory_faster(self):
        def script(ctx):
            b = TraceBuilder()
            for i in range(30):
                yield b.ld_global([i * 97])
            yield b.exit()

        base = run_one(script, GPUConfig(num_sms=2, num_mem_partitions=2))
        fast = run_one(
            script,
            GPUConfig(num_sms=2, num_mem_partitions=2, perfect_memory=True),
        )
        assert fast.kernel_cycles < base.kernel_cycles

    def test_h2d_memcpy_flushes_caches(self):
        class App(Application):
            name = "flush"

            def host_program(self):
                def script(ctx):
                    b = TraceBuilder()
                    yield b.ld_global([3])
                    yield b.exit()

                kernel = ScriptKernel(script, 32)
                yield HostLaunch(KernelLaunch(kernel, 1))
                yield HostMemcpy(1024, "h2d")
                yield HostLaunch(KernelLaunch(kernel, 1))

        sim = GPUSimulator(GPUConfig(num_sms=2, num_mem_partitions=2))
        stats = sim.run_application(App())
        # Both kernels miss: the H2D between them invalidated line 3.
        assert stats.l1.load_misses == 2

    def test_d2h_memcpy_preserves_caches(self):
        class App(Application):
            name = "noflush"

            def host_program(self):
                def script(ctx):
                    b = TraceBuilder()
                    yield b.ld_global([3])
                    yield b.exit()

                kernel = ScriptKernel(script, 32)
                yield HostLaunch(KernelLaunch(kernel, 1))
                yield HostMemcpy(1024, "d2h")
                yield HostLaunch(KernelLaunch(kernel, 1))

        sim = GPUSimulator(GPUConfig(num_sms=2, num_mem_partitions=2))
        stats = sim.run_application(App())
        assert stats.l1.load_misses == 1
        assert stats.l1.hits == 1


class TestBarriers:
    def test_barrier_synchronizes_warps(self):
        def script(ctx):
            b = TraceBuilder()
            # Warp 0 does extra work before the barrier.
            if ctx.warp_id == 0:
                yield b.ints(50)
            yield b.barrier()
            yield b.ints(1)
            yield b.exit()

        stats = run_one(script, cta_threads=128)
        assert stats.stalls.get(StallReason.SYNC.value, 0) > 0

    def test_exit_releases_barrier(self):
        def script(ctx):
            b = TraceBuilder()
            if ctx.warp_id == 0:
                yield b.exit()  # exits without reaching the barrier
                return
            yield b.barrier()
            yield b.ints(1)
            yield b.exit()

        stats = run_one(script, cta_threads=96)
        assert stats.instructions > 0  # completed without deadlock


class TestCDP:
    def test_device_launch_and_sync(self):
        child_script = lambda ctx: iter(
            [TraceBuilder().ints(5), TraceBuilder().exit()]
        )
        child = ScriptKernel(child_script, 32)

        def parent(ctx):
            b = TraceBuilder()
            yield b.launch(KernelLaunch(child, num_ctas=2))
            yield b.device_sync()
            yield b.ints(1)
            yield b.exit()

        stats = run_one(parent, cta_threads=32)
        assert stats.device_launches == 1
        # Parent warp (launch + devsync + int + exit) plus 2 child
        # CTAs of 1 warp each (5 ints + exit).
        assert stats.instructions == 4 + 2 * 6

    def test_devsync_without_children_is_cheap(self):
        def script(ctx):
            b = TraceBuilder()
            yield b.device_sync()
            yield b.exit()

        stats = run_one(script, cta_threads=32)
        assert stats.instructions == 2

    def test_nested_children_complete(self):
        leaf = ScriptKernel(
            lambda ctx: iter([TraceBuilder().ints(2), TraceBuilder().exit()]),
            32,
        )

        def mid_script(ctx):
            b = TraceBuilder()
            yield b.launch(KernelLaunch(leaf, 1))
            yield b.device_sync()
            yield b.exit()

        mid = ScriptKernel(mid_script, 32)

        def parent(ctx):
            b = TraceBuilder()
            yield b.launch(KernelLaunch(mid, 1))
            yield b.device_sync()
            yield b.exit()

        stats = run_one(parent, cta_threads=32)
        assert stats.device_launches == 2


class TestHostInterface:
    def test_memcpy_accounting(self):
        class App(Application):
            name = "copies"

            def host_program(self):
                yield HostMemcpy(10_000, "h2d")
                yield HostMemcpy(5_000, "d2h")

        sim = GPUSimulator(GPUConfig(num_sms=2, num_mem_partitions=2))
        stats = sim.run_application(App())
        assert stats.memcpy_calls == 2
        assert stats.pci_cycles > 2 * sim.config.pci.latency_cycles

    def test_launch_overhead_counted(self):
        def script(ctx):
            yield TraceBuilder().exit()

        stats = run_one(script)
        assert stats.kernel_launches == 1
        assert stats.launch_overhead_cycles == GPUConfig().host_launch_cycles
        assert stats.device_time() >= stats.kernel_cycles

    def test_simulator_single_use(self):
        class App(Application):
            name = "empty"

            def host_program(self):
                return iter(())

        sim = GPUSimulator(GPUConfig(num_sms=2, num_mem_partitions=2))
        sim.run_application(App())
        with pytest.raises(RuntimeError, match="single use"):
            sim.run_application(App())

    def test_grid_too_large_for_machine_deadlocks(self):
        def script(ctx):
            yield TraceBuilder().exit()

        huge = ScriptKernel(script, 64, smem_per_cta=200 * 1024)

        class App(Application):
            name = "huge"

            def host_program(self):
                yield HostLaunch(KernelLaunch(huge, 1))

        sim = GPUSimulator(GPUConfig(num_sms=2, num_mem_partitions=2))
        with pytest.raises(SimulationDeadlock, match="shared memory"):
            sim.run_application(App())


class TestDeterminism:
    def test_same_inputs_same_stats(self):
        def script(ctx):
            b = TraceBuilder()
            for i in range(10):
                yield b.ints(3)
                yield b.ld_global([ctx.global_warp * 7 + i])
            yield b.exit()

        a = run_one(script, num_ctas=4)
        b = run_one(script, num_ctas=4)
        assert a.kernel_cycles == b.kernel_cycles
        assert a.instructions == b.instructions
        assert a.stalls == b.stalls


class TestCTARefill:
    def test_more_ctas_than_capacity_all_complete(self):
        def script(ctx):
            b = TraceBuilder()
            yield b.ints(5)
            yield b.exit()

        stats = run_one(script, num_ctas=100, cta_threads=64)
        assert stats.instructions == 100 * 2 * 6

    def test_grid_larger_than_machine_scales_time(self):
        def script(ctx):
            b = TraceBuilder()
            yield b.ints(200)
            yield b.exit()

        few = run_one(script, num_ctas=2, cta_threads=64)
        many = run_one(script, num_ctas=200, cta_threads=64)
        assert many.kernel_cycles > few.kernel_cycles


class ListKernel(KernelProgram):
    """Kernel whose every warp replays one materialized trace."""

    def __init__(self, trace, cta_threads=32):
        super().__init__("list", cta_threads)
        self.trace = trace

    def warp_trace(self, ctx):
        return self.trace


class TestManyTinyGrids:
    """Dispatch/refill with deep pending-grid queues (the rebuilt scan).

    The grids are driven directly, with no application to credit trace
    totals, so the per-SM issue counts are the instruction counts.
    """

    @staticmethod
    def _tiny_kernel():
        b = TraceBuilder()
        return ListKernel([b.ints(2), b.exit()])

    def test_many_concurrent_grids_all_finish(self):
        from repro.sim.warp import Grid

        config = GPUConfig(num_sms=2, num_mem_partitions=2,
                           max_ctas_per_sm=4)
        sim = GPUSimulator(config)
        kernel = self._tiny_kernel()
        grids = [Grid(kernel, 1) for _ in range(200)]
        for grid in grids:
            sim.submit_grid(grid)
        # 2 SMs x 4 CTA slots: the rest must sit in the pending queue.
        assert len(sim._pending_grids) == 200 - 8
        for g in grids:
            sim._drive_grid(g)
        assert not sim._pending_grids
        stats = sim.finalize()
        assert sum(stats.sm_instructions.values()) == 200 * 3

    def test_pending_order_is_fifo(self):
        from repro.sim.warp import Grid

        config = GPUConfig(num_sms=1, num_mem_partitions=1,
                           max_ctas_per_sm=1)
        sim = GPUSimulator(config)
        kernel = self._tiny_kernel()
        grids = [Grid(kernel, 1) for _ in range(50)]
        for grid in grids:
            sim.submit_grid(grid)
        for g in grids:
            sim._drive_grid(g)
        completions = [g.completion_time for g in grids]
        assert completions == sorted(completions)

    def test_mixed_grid_sizes_refill(self):
        from repro.sim.warp import Grid

        config = GPUConfig(num_sms=2, num_mem_partitions=2,
                           max_ctas_per_sm=2)
        sim = GPUSimulator(config)
        kernel = self._tiny_kernel()
        grids = [Grid(kernel, 1 + (i % 5)) for i in range(60)]
        for grid in grids:
            sim.submit_grid(grid)
        for g in grids:
            sim._drive_grid(g)
        assert not sim._pending_grids
        total_ctas = sum(g.num_ctas for g in grids)
        stats = sim.finalize()
        assert sum(stats.sm_instructions.values()) == total_ctas * 3


@pytest.mark.parametrize(
    "abbr,cdp,config",
    [
        ("NW", False, GPUConfig()),
        ("PairHMM", True, GPUConfig()),
        ("STAR", True, GPUConfig(event_core=False)),
        ("SW", True, GPUConfig(telemetry_interval=5000)),
    ],
    ids=["NW", "PairHMM-CDP", "STAR-CDP-reference", "SW-CDP-telemetry"],
)
def test_finished_run_is_freed_without_gc(abbr, cdp, config):
    """A finished run holds no reference cycles (SM <-> L1 writeback
    sink, warp <-> CTA): its simulator goes with
    the last reference, not at a gen-2 collection."""
    app = load_benchmark(abbr, cdp=cdp, size=DatasetSize.SMALL)
    gc.collect()
    gc.disable()
    try:
        sim = GPUSimulator(config)
        ref = weakref.ref(sim)
        replay_application(app, sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()
