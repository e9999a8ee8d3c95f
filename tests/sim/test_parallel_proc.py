"""Process shard driver: failure modes, dispatch mirror, eligibility.

The golden matrix (``test_parallel_golden``) locks the shard driver's
bit-identity; this file exercises the machinery around it: the
replicated dispatch plan against the real ``_dispatch_pending``,
eligibility fallbacks (CDP, observers, partial dispatch), a worker
killed mid-run surfacing as :class:`SimulationDeadlock`, a worker
exception re-raising in the parent with the child traceback attached,
and teardown on ``KeyboardInterrupt``.
"""

import dataclasses
import os
import signal

import pytest

from repro.isa import TraceBuilder
from repro.sim import HostLaunch, KernelLaunch
from repro.sim.gpu import SimulationDeadlock
from repro.sim.parallel_proc import plan_dispatch, try_install_process_driver
from tests.sim.test_parallel_core import (
    ScriptApp,
    ScriptKernel,
    install_driver,
    make_sim,
    memory_script,
    run_app,
)


def _script_app(num_ctas=8):
    return ScriptApp(
        ScriptKernel(memory_script, 64), num_ctas=num_ctas, launch_free=True
    )


class TestIdentity:
    def test_small_app_identical(self):
        seq = run_app(_script_app())
        par = run_app(_script_app(), parallel_shards=2)
        assert dataclasses.asdict(par) == dataclasses.asdict(seq)

    def test_memcpy_flush_identical(self):
        """Host copies flush worker-side SM caches through the flush
        hook; the flushed-line writebacks must land in the merged
        cache stats exactly as in the sequential run."""

        class CopyApp(ScriptApp):
            def host_program(self):
                from repro.sim import HostMemcpy

                yield HostLaunch(
                    KernelLaunch(self.kernel, num_ctas=self.num_ctas)
                )
                yield HostMemcpy(1 << 16, "h2d")
                yield HostLaunch(
                    KernelLaunch(self.kernel, num_ctas=self.num_ctas)
                )

        def app():
            return CopyApp(
                ScriptKernel(memory_script, 64), num_ctas=8, launch_free=True
            )

        seq = run_app(app())
        par = run_app(app(), parallel_shards=2)
        assert dataclasses.asdict(par) == dataclasses.asdict(seq)


class TestDispatchMirror:
    def test_plan_matches_dispatch_pending(self):
        """plan_dispatch must reproduce ``_dispatch_pending``'s
        placement CTA-for-CTA, including the (used_threads, sm_id)
        tie-break, under real resource pressure."""
        sim = make_sim(num_sms=3)
        kernel = ScriptKernel(memory_script, 256, smem_per_cta=16 * 1024)
        num_ctas = 12
        plan = plan_dispatch(sim, kernel, num_ctas)
        from repro.sim.warp import Grid

        grid = Grid(kernel, num_ctas=num_ctas)
        sim.submit_grid(grid)
        actual = []
        for sm in sim.sms:
            for cta in sm.ctas:
                actual.append((cta.cta_id, sm.sm_id))
        actual = [sm_id for _cta, sm_id in sorted(actual)]
        assert plan == actual
        assert len(plan) == num_ctas

    def test_partial_dispatch_declined(self):
        """A grid that cannot fully dispatch from idle needs live
        mid-grid refills — the process backend must decline it."""
        sim = make_sim(num_sms=2, parallel_shards=2)
        app = ScriptApp(
            ScriptKernel(memory_script, 256, smem_per_cta=24 * 1024),
            num_ctas=24,
            launch_free=True,
        )
        assert try_install_process_driver(sim, app) is None


class TestEligibility:
    def test_cdp_app_runs_sequential(self):
        """A CDP-capable application cannot enter windowed execution
        (children may land on remote shards): no driver is installed
        and the run takes the sequential event core."""
        sim = make_sim(parallel_shards=2)
        app = _script_app()
        app.may_device_launch = True
        assert try_install_process_driver(sim, app) is None
        assert sim._grid_driver is None

    def test_observers_fall_back(self):
        """The sampled estimator's hooks cannot cross a fork; any
        attached observer keeps the run in-process."""
        sim = make_sim(parallel_shards=2)
        sim.cta_observer = lambda cta, t: None
        assert try_install_process_driver(sim, _script_app()) is None


class TestFailurePropagation:
    def test_dead_worker_raises_deadlock(self):
        """A shard worker killed mid-run (OOM killer, operator) must
        surface as SimulationDeadlock at the next exchange — and every
        worker must be reaped on the way out."""
        sim = make_sim(parallel_shards=2)
        driver, wrapped = install_driver(sim, _script_app())
        victim = driver._pids[0]
        os.kill(victim, signal.SIGKILL)
        with pytest.raises(SimulationDeadlock, match="shard worker"):
            sim.run_application(wrapped)
        assert all(pid is None for pid in driver._pids)

    def test_worker_exception_carries_traceback(self):
        """A mismarked launch-free app device-launches inside a forked
        worker: the loud RuntimeError must re-raise in the parent with
        the child's traceback chained as the cause."""
        child = ScriptKernel(lambda ctx: iter([TraceBuilder().exit()]), 32)

        def parent(ctx):
            b = TraceBuilder()
            yield b.launch(KernelLaunch(child, num_ctas=1))
            yield b.exit()

        app = ScriptApp(ScriptKernel(parent, 32), launch_free=True)
        with pytest.raises(RuntimeError, match="may_device_launch") as info:
            run_app(app, parallel_shards=2)
        cause = info.value.__cause__
        assert cause is not None
        assert "worker traceback" in str(cause)
        assert "device_launch" in str(cause)

    def test_keyboard_interrupt_reaps_workers(self):
        """Ctrl-C mid-window must terminate and reap every worker
        before propagating — no orphan processes, no leaked shm."""
        sim = make_sim(parallel_shards=2)
        driver, wrapped = install_driver(sim, _script_app())
        pids = list(driver._pids)

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        driver._replay = interrupt
        with pytest.raises(KeyboardInterrupt):
            sim.run_application(wrapped)
        assert all(pid is None for pid in driver._pids)
        for pid in pids:
            # Reaped: the pid is no longer our child.
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_close_is_idempotent(self):
        sim = make_sim(parallel_shards=2)
        driver, wrapped = install_driver(sim, _script_app())
        stats = sim.run_application(wrapped)
        assert stats.instructions > 0
        driver.close()  # finalize already closed; must be a no-op
        driver.close(terminate=True)
