"""Tests for host-op validation and the application base class."""

import pytest

from repro.sim.kernel import KernelProgram
from repro.sim.launch import Application, HostMemcpy, KernelLaunch
from repro.sim.warp import Grid


class _NullTraceKernel(KernelProgram):
    def warp_trace(self, ctx):
        return []


class _GeneratorKernel(KernelProgram):
    def warp_trace(self, ctx):
        yield from ()


def kernel():
    return _NullTraceKernel("k", 32)


class TestKernelLaunch:
    def test_valid(self):
        launch = KernelLaunch(kernel(), num_ctas=4, args={"x": 1})
        assert launch.num_ctas == 4
        assert launch.args == {"x": 1}

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            KernelLaunch(kernel(), num_ctas=0)


class TestHostMemcpy:
    def test_valid_directions(self):
        assert HostMemcpy(10, "h2d").direction == "h2d"
        assert HostMemcpy(10, "d2h").direction == "d2h"

    def test_rejects_zero_bytes(self):
        with pytest.raises(ValueError):
            HostMemcpy(0)

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            HostMemcpy(10, "d2d")


class TestApplicationBase:
    def test_host_program_abstract(self):
        with pytest.raises(NotImplementedError):
            next(iter(Application().host_program()))

    def test_describe_default(self):
        app = Application()
        app.name = "thing"
        assert app.describe() == "thing"


class TestGrid:
    def test_dispatch_and_completion_tracking(self):
        grid = Grid(kernel(), num_ctas=2)
        assert not grid.dispatch_done
        grid.make_cta(0.0)
        grid.make_cta(0.0)
        assert grid.dispatch_done
        with pytest.raises(RuntimeError):
            grid.make_cta(0.0)
        assert not grid.finished
        grid.remaining_ctas = 0
        assert grid.finished

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            Grid(kernel(), num_ctas=0)

    def test_start_time_recorded_on_first_cta(self):
        grid = Grid(kernel(), num_ctas=2)
        grid.make_cta(42.0)
        assert grid.start_time == 42.0
        grid.make_cta(50.0)
        assert grid.start_time == 42.0

    def test_warps_created_per_cta(self):
        grid = Grid(_NullTraceKernel("t", 128), num_ctas=1)
        cta = grid.make_cta(0.0)
        assert len(cta.warps) == 4
        assert [w.warp_id for w in cta.warps] == [0, 1, 2, 3]

    def test_rejects_an_unmaterialized_trace(self):
        """A generator trace fails by name at dispatch, not mid-run."""
        grid = Grid(_GeneratorKernel("gen", 64), num_ctas=2)
        with pytest.raises(TypeError, match=r"'gen' \(cta=0, warp=0\)"):
            grid.make_cta(0.0)
