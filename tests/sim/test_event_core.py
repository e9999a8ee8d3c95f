"""Event-core edge cases: deadlock, dormancy, barrier exit, run-ahead.

These exercise the paths the golden suite (`test_event_core_golden`)
only crosses incidentally: the deadlock detector, dormant-SM stall
attribution through ``wake_accounting``, barrier release by an exiting
warp, the SM-local run-ahead gate (``may_device_launch``), and the
lookahead horizon CDP replays run ahead to.
"""

import dataclasses

import pytest

from repro.core.runner import load_benchmark
from repro.data.datasets import DatasetSize
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
from repro.sim.replay import CachedApplication, replay_application
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import StallReason

BOTH_CORES = pytest.mark.parametrize(
    "event_core", [True, False], ids=["event", "reference"]
)


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
        # Opting in to run-ahead is a *declaration*: the simulator
        # trusts it and hard-errors on a device launch.
        self.may_device_launch = not launch_free

    def host_program(self):
        yield HostLaunch(KernelLaunch(self.kernel, num_ctas=self.num_ctas))


def run_app(app, event_core=True, num_sms=2):
    sim = GPUSimulator(
        GPUConfig(event_core=event_core, num_sms=num_sms, num_mem_partitions=2)
    )
    return sim.run_application(app)


def _count_calls(monkeypatch, owner, name) -> list:
    """Patch ``owner.name`` to record each call; returns the record."""
    calls = []
    original = owner.__dict__[name]

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _two_sm_config(event_core=True):
    return GPUConfig(event_core=event_core, num_sms=2, num_mem_partitions=2)


class TestDeadlock:
    @BOTH_CORES
    def test_undispatchable_grid_raises(self, event_core):
        def script(ctx):
            yield TraceBuilder().exit()

        huge = ScriptKernel(script, 64, smem_per_cta=200 * 1024)
        with pytest.raises(SimulationDeadlock):
            run_app(ScriptApp(huge), event_core=event_core)


class TestDormantAccounting:
    @BOTH_CORES
    def test_devsync_dormancy_charged_functional(self, event_core):
        """A parent SM with every warp parked on ``cudaDeviceSynchronize``
        goes dormant; when the child (on the other SM) completes, the
        dormant gap must be attributed to FUNCTIONAL_DONE."""
        child = ScriptKernel(
            lambda ctx: iter([TraceBuilder().ints(400), TraceBuilder().exit()]),
            32,
        )

        def parent(ctx):
            b = TraceBuilder()
            yield b.launch(KernelLaunch(child, num_ctas=1))
            yield b.device_sync()
            yield b.exit()

        stats = run_app(
            ScriptApp(ScriptKernel(parent, 32)), event_core=event_core
        )
        # The parent waits out the child's ~400-cycle ALU block: far
        # more functional-done stall than the launch overhead alone.
        assert stats.stalls[StallReason.FUNCTIONAL_DONE.value] > 300

    def test_dormant_attribution_identical_across_cores(self):
        child = ScriptKernel(
            lambda ctx: iter([TraceBuilder().ints(400), TraceBuilder().exit()]),
            32,
        )

        def parent(ctx):
            b = TraceBuilder()
            yield b.launch(KernelLaunch(child, num_ctas=1))
            yield b.device_sync()
            yield b.exit()

        results = [
            run_app(ScriptApp(ScriptKernel(parent, 32)), event_core=ec)
            for ec in (True, False)
        ]
        assert dataclasses.asdict(results[0]) == dataclasses.asdict(results[1])


class TestBarrierExit:
    @BOTH_CORES
    def test_exiting_warp_releases_barrier(self, event_core):
        """A warp that exits without reaching the barrier must still
        count toward release — its peers would hang otherwise."""

        def script(ctx):
            b = TraceBuilder()
            if ctx.warp_id == 0:
                yield b.exit()
                return
            yield b.barrier()
            yield b.ints(1)
            yield b.exit()

        stats = run_app(
            ScriptApp(ScriptKernel(script, 96), launch_free=True),
            event_core=event_core,
        )
        # 1 exit + 2x (barrier + int + exit): all warps completed.
        assert stats.instructions == 7

    def test_release_identical_across_cores(self):
        def script(ctx):
            b = TraceBuilder()
            if ctx.warp_id == 0:
                yield b.ints(30)
                yield b.exit()
                return
            yield b.barrier()
            yield b.ints(5)
            yield b.exit()

        results = [
            run_app(
                ScriptApp(ScriptKernel(script, 128), launch_free=True),
                event_core=ec,
            )
            for ec in (True, False)
        ]
        assert dataclasses.asdict(results[0]) == dataclasses.asdict(results[1])


class TestRunAhead:
    def test_runahead_matches_legacy_event_core(self):
        """The same application, declared launch-free (SM-local
        run-ahead) vs conservatively (one decision per heap pop), must
        produce identical stats on the event core."""

        def script(ctx):
            b = TraceBuilder()
            for i in range(40):
                yield b.ints(3)
                yield b.ld_global([ctx.global_warp * 7 + i, 50_000 + i])
                yield b.branch()
                yield b.ld_shared()
            yield b.barrier()
            yield b.exit()

        kernel_args = dict(num_ctas=6)
        results = [
            run_app(
                ScriptApp(
                    ScriptKernel(script, 128), launch_free=free, **kernel_args
                )
            )
            for free in (True, False)
        ]
        assert dataclasses.asdict(results[0]) == dataclasses.asdict(results[1])

    def test_same_cycle_misses_on_two_sms_defer(self, monkeypatch):
        """Two SMs miss in the L1 on the same cycle, into one memory
        partition.  SM 1 runs ahead to its miss while SM 0's miss is
        queued at that very cycle: the heap head is due, not strictly
        later, so SM 1 must defer and go second, as the ``(time,
        sm_id)`` order says.  SM 0 works on after its load, so the
        order shows in the cycle count; the run matches the reference
        core."""
        defers = _count_calls(monkeypatch, StreamingMultiprocessor, "_defer")

        def script(ctx):
            b = TraceBuilder()
            yield b.ints(5)
            yield b.ld_global([2 * ctx.cta_id])  # both in partition 0
            if ctx.cta_id == 0:
                yield b.ints(50)
            yield b.exit()

        app = CachedApplication(
            ScriptApp(ScriptKernel(script, 32), num_ctas=2, launch_free=True)
        )
        fast = replay_application(app, GPUSimulator(_two_sm_config()))
        assert defers
        ref = replay_application(
            app, GPUSimulator(_two_sm_config(event_core=False))
        )
        assert dataclasses.asdict(fast) == dataclasses.asdict(ref)

    @pytest.mark.parametrize("abbr,cdp,most", [
        pytest.param("NvB", False, 0, id="NvB"),
        pytest.param("GKSW", False, 2107, id="GKSW"),
        pytest.param("GKSW", True, 2084, id="GKSW-CDP"),
    ])
    def test_deferrals_per_replay(self, monkeypatch, abbr, cdp, most):
        """A would-miss access executes inline when the global heap is
        empty or its head is strictly later (it is at its slot already)
        and is deferred only otherwise.  Launch-free replays deferred
        every such access before (NvB small 1,792 times, GKSW small
        4,217); GKSW-CDP, whose rule this is, stays where it was."""
        app = load_benchmark(abbr, cdp=cdp, size=DatasetSize.SMALL)
        defers = _count_calls(monkeypatch, StreamingMultiprocessor, "_defer")
        replay_application(app, GPUSimulator(GPUConfig()))
        if cdp:
            assert len(defers) == most
        else:
            assert len(defers) <= most

    def test_false_declaration_raises(self):
        """An application that declares itself launch-free but then
        device-launches must fail loudly, not diverge silently."""
        child = ScriptKernel(
            lambda ctx: iter([TraceBuilder().exit()]), 32
        )

        def parent(ctx):
            b = TraceBuilder()
            yield b.launch(KernelLaunch(child, num_ctas=1))
            yield b.device_sync()
            yield b.exit()

        app = ScriptApp(ScriptKernel(parent, 32), launch_free=True)
        with pytest.raises(RuntimeError, match="may_device_launch"):
            run_app(app)


#: ALU blocks of the boundary application's child and of its late
#: parent: with ``int_latency=1`` a warp's ALU block ends exactly at
#: its horizon bound, so the second launch lands on the first child's
#: completion cycle.
CHILD_INTS = 300
LATE_PARENT_INTS = CHILD_INTS + 1011


def _boundary_app():
    """Parent CTA 0 launches a child early and waits on it; CTA 1
    launches one on the cycle that child completes; CTAs 2-3 issue
    every cycle around both, missing in the L1 as they go."""
    child = ScriptKernel(
        lambda ctx: iter([TraceBuilder().ints(CHILD_INTS),
                          TraceBuilder().exit()]),
        32,
    )

    def parent(ctx):
        b = TraceBuilder()
        if ctx.cta_id < 2:
            yield b.ints(10 if ctx.cta_id == 0 else LATE_PARENT_INTS)
            yield b.launch(KernelLaunch(child, num_ctas=1))
            yield b.device_sync()
        else:
            for i in range(600):
                yield b.ints(1)
                yield b.ld_global([1000 * ctx.cta_id + i])
                yield b.ints(2)
        yield b.exit()

    return CachedApplication(ScriptApp(ScriptKernel(parent, 32), num_ctas=4))


def _boundary_config(event_core=True):
    return GPUConfig(event_core=event_core, num_sms=4,
                     num_mem_partitions=2, int_latency=1)


class TestLookaheadHorizon:
    def test_events_exactly_at_the_horizon_match_reference(
        self, monkeypatch
    ):
        """A child completion and a parent LAUNCH on the same cycle,
        both exactly at the horizon, while other SMs issue on that
        cycle too: the replay runs ahead up to it and must still match
        the reference core field for field."""
        from repro.sim.gpu import GPUSimulator as Sim

        events = []
        launch, finished = Sim.device_launch, Sim.on_grid_finished

        def record_launch(self, sm, warp, spec, t):
            events.append(("launch", t, self._horizon))
            return launch(self, sm, warp, spec, t)

        def record_finished(self, grid, t):
            events.append((grid.kernel.name, t, self._horizon))
            return finished(self, grid, t)

        monkeypatch.setattr(Sim, "device_launch", record_launch)
        monkeypatch.setattr(Sim, "on_grid_finished", record_finished)
        app = _boundary_app()
        fast = replay_application(app, GPUSimulator(_boundary_config()))
        at_horizon = {(kind, t) for kind, t, horizon in events
                      if t == horizon}
        boundary = 2000 + 10 + 1000 + CHILD_INTS + 1
        assert {("launch", boundary), ("script", boundary)} <= at_horizon
        ref = replay_application(
            app, GPUSimulator(_boundary_config(event_core=False))
        )
        assert dataclasses.asdict(fast) == dataclasses.asdict(ref)

    @pytest.mark.parametrize("kind", ["launch", "completion"])
    def test_a_horizon_too_high_raises(self, monkeypatch, kind):
        """A bound above the next LAUNCH or grid completion would let
        other SMs run past it; the run must fail naming the event."""
        from repro.sim.gpu import GPUSimulator as Sim

        def too_high(self):
            self._horizon = 10 ** 9
            return self._horizon

        monkeypatch.setattr(Sim, "refresh_horizon", too_high)
        if kind == "launch":
            app = _boundary_app()
            match = "device LAUNCH of kernel 'script' at cycle .* below"
        else:
            def busy(ctx):
                b = TraceBuilder()
                for i in range(50):
                    yield b.ld_global([100 * ctx.cta_id + i])
                yield b.exit()

            app = CachedApplication(ScriptApp(ScriptKernel(busy), num_ctas=4))
            match = "grid of kernel 'script' completed at cycle .* below"
        sim = GPUSimulator(_boundary_config())
        sim._horizon = 10 ** 9
        with pytest.raises(RuntimeError, match=match + " the lookahead horizon"):
            replay_application(app, sim)

    def test_pending_launching_grid_gates(self):
        """A parent grid larger than the machine: while CTAs that can
        launch wait for a slot, any CTA finish may admit one whose
        launch no bound yet covers, so the horizon must hold the loop
        gated.  Without that, parent CTA 2 launches below the bound
        the resident warps give, and the run raises."""
        child = ScriptKernel(
            lambda ctx: iter([TraceBuilder().ints(3000),
                              TraceBuilder().exit()]),
            32,
        )

        def parent(ctx):
            b = TraceBuilder()
            yield b.ints(5)
            yield b.launch(KernelLaunch(child, num_ctas=1))
            yield b.ints((20, 2000, 5)[ctx.cta_id])
            yield b.exit()

        app = CachedApplication(ScriptApp(ScriptKernel(parent, 32), 3))
        fast, ref = (
            dataclasses.asdict(replay_application(app, GPUSimulator(
                GPUConfig(event_core=event_core, num_sms=2,
                          num_mem_partitions=2, max_ctas_per_sm=1)
            )))
            for event_core in (True, False)
        )
        assert fast == ref

    def test_pairhmm_cdp_runs_ahead(self, monkeypatch):
        """The gated loop returned to the driver after about one
        decision: PairHMM-CDP small took 39,265 ``step`` calls.  Below
        the horizon it runs ahead like its plain twin (2,043 measured
        when the horizon landed)."""
        calls = []
        step = StreamingMultiprocessor.step

        def counted(self, *args):
            calls.append(None)
            return step(self, *args)

        monkeypatch.setattr(StreamingMultiprocessor, "step", counted)
        replay_application(
            load_benchmark("PairHMM", cdp=True, size=DatasetSize.SMALL),
            GPUSimulator(GPUConfig()),
        )
        assert len(calls) < 4000
