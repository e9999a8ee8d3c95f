"""Parallel-core edge cases: cross-shard events, fallbacks, deadlock.

These exercise the paths the golden suite (``test_parallel_golden``)
only crosses incidentally: a CDP device launch whose child lands on a
remote shard (the sequential fallback), grids retiring exactly on a
window boundary (the driver's window shrunk as a test seam), the
deadlock detector when every shard heap drains mid-run, and the
mismarked-application error propagating out of a shard worker.
"""

import dataclasses

import pytest

from repro.isa import TraceBuilder
from repro.sim import (
    Application,
    GPUConfig,
    GPUSimulator,
    HostLaunch,
    KernelLaunch,
    KernelProgram,
)
from repro.sim.gpu import SimulationDeadlock
from repro.sim.parallel import local_completion_floor
from repro.sim.parallel_proc import (
    ProcessShardDriver,
    try_install_process_driver,
)
from repro.sim.warp import Grid


class ScriptKernel(KernelProgram):
    """Kernel whose trace comes from a per-warp script function."""

    def __init__(self, script, cta_threads=64, **resources):
        super().__init__("script", cta_threads, **resources)
        self.script = script

    def warp_trace(self, ctx):
        yield from self.script(ctx)


class ScriptApp(Application):
    """One launch of a scripted kernel, optionally run-ahead eligible."""

    name = "script-app"

    def __init__(self, kernel, num_ctas=1, launch_free=False):
        self.kernel = kernel
        self.num_ctas = num_ctas
        self.may_device_launch = not launch_free

    def host_program(self):
        yield HostLaunch(KernelLaunch(self.kernel, num_ctas=self.num_ctas))


def make_sim(num_sms=4, **config_overrides):
    return GPUSimulator(GPUConfig(
        event_core=True, num_sms=num_sms, num_mem_partitions=2,
        **config_overrides,
    ))


def run_app(app, num_sms=4, **config_overrides):
    return make_sim(num_sms, **config_overrides).run_application(app)


def install_driver(sim, app):
    """Install the shard driver on ``sim``; returns (driver, wrapped)."""
    wrapped = try_install_process_driver(sim, app)
    assert wrapped is not None, "expected an eligible application"
    driver = sim._grid_driver.__self__
    assert isinstance(driver, ProcessShardDriver)
    return driver, wrapped


def memory_script(ctx):
    """A few dependent global loads + ALU work: every warp crosses the
    memory subsystem, so shards must stage cross-shard traffic."""
    b = TraceBuilder()
    for i in range(6):
        yield b.ints(3)
        yield b.ld_global([ctx.global_warp * 9 + i, ctx.global_warp + 512])
    yield b.exit()


class TestCDPFallback:
    def _cdp_app(self):
        child = ScriptKernel(
            lambda ctx: iter(
                [TraceBuilder().ints(200), TraceBuilder().exit()]
            ),
            32,
        )

        def parent(ctx):
            b = TraceBuilder()
            yield b.launch(KernelLaunch(child, num_ctas=4))
            yield b.device_sync()
            yield b.exit()

        return ScriptApp(ScriptKernel(parent, 32), num_ctas=4)

    def test_device_launch_lands_identically(self):
        """A CDP child may be dispatched to any SM — including one a
        different shard would own.  The driver must route the whole
        application through the sequential fallback and match the
        plain event core bit-for-bit."""
        seq = run_app(self._cdp_app())
        par = run_app(self._cdp_app(), parallel_shards=4)
        assert par.device_launches > 0
        assert dataclasses.asdict(par) == dataclasses.asdict(seq)

    def test_mismarked_app_raises_through_pool(self):
        """An application that declares itself launch-free enters
        windowed execution; a device launch from inside a forked shard
        worker must surface the loud RuntimeError, not diverge or
        hang."""
        child = ScriptKernel(lambda ctx: iter([TraceBuilder().exit()]), 32)

        def parent(ctx):
            b = TraceBuilder()
            yield b.launch(KernelLaunch(child, num_ctas=1))
            yield b.exit()

        app = ScriptApp(ScriptKernel(parent, 32), launch_free=True)
        with pytest.raises(RuntimeError, match="may_device_launch"):
            run_app(app, parallel_shards=2)


class TestWindowBoundaries:
    @pytest.mark.parametrize("window", [1, 2, 3, 7])
    def test_tiny_windows_identical(self, window):
        """window=1 puts a barrier on *every* occupied cycle, so grid
        retirement (``cta_finished`` draining at the barrier) lands
        exactly on a window boundary; small primes cover off-phase
        boundaries.  All must match the sequential core."""
        def app():
            return ScriptApp(
                ScriptKernel(memory_script, 64), num_ctas=8, launch_free=True
            )

        seq = run_app(app())
        sim = make_sim(parallel_shards=2)
        driver, wrapped = install_driver(sim, app())
        driver.window = window
        par = sim.run_application(wrapped)
        assert dataclasses.asdict(par) == dataclasses.asdict(seq)

    def test_partial_dispatch_falls_back_identically(self):
        """A grid too large to fully dispatch at submit stays pending;
        mid-grid refills read live SM clocks, so the driver must take
        the sequential fallback — and still match bit-for-bit."""
        def app():
            return ScriptApp(
                ScriptKernel(memory_script, 256, smem_per_cta=24 * 1024),
                num_ctas=24,
                launch_free=True,
            )

        seq = run_app(app(), num_sms=2)
        par = run_app(app(), num_sms=2, parallel_shards=2)
        assert dataclasses.asdict(par) == dataclasses.asdict(seq)


class TestDeadlock:
    def test_all_shards_idle_raises(self):
        """Every shard heap empty with CTAs still outstanding must
        raise, not spin: the window loop cannot pick a start time."""
        sim = make_sim(num_sms=2, parallel_shards=2)
        kernel = ScriptKernel(lambda ctx: iter([TraceBuilder().exit()]), 32)
        driver, _ = install_driver(sim, ScriptApp(kernel, launch_free=True))
        sim._runahead = True  # as run_application sets for this app
        orphan = Grid(kernel, num_ctas=1)  # never submitted: no heap entries
        with pytest.raises(SimulationDeadlock):
            driver.drive(orphan)
        assert all(pid is None for pid in driver._pids)

    def test_undispatchable_grid_raises(self):
        """The classic deadlock (a CTA that fits no SM) flows through
        the pending-grid fallback and still reports loudly."""
        huge = ScriptKernel(
            lambda ctx: iter([TraceBuilder().exit()]),
            64,
            smem_per_cta=200 * 1024,
        )
        with pytest.raises(SimulationDeadlock):
            run_app(
                ScriptApp(huge, launch_free=True),
                num_sms=2,
                parallel_shards=2,
            )


class TestWindowValidation:
    def test_driver_reports_exactness(self):
        """The installed driver runs the safe window, which must exceed
        the SM-local completion floor for delivered wakes to be exact."""
        sim = make_sim(parallel_shards=2)
        app = ScriptApp(
            ScriptKernel(memory_script, 64), num_ctas=2, launch_free=True
        )
        driver, _ = install_driver(sim, app)
        driver.close()
        assert driver.window == sim.memory.min_cross_sm_latency()
        assert local_completion_floor(sim.config) < driver.window
