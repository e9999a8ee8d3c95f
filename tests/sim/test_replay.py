"""Trace materialization/replay must be invisible in the results."""

import dataclasses
import gc
import weakref

import pytest

from repro.isa import TraceBuilder
from repro.isa.instructions import OpClass
from repro.kernels import build_application
from repro.sim import GPUConfig, GPUSimulator
from repro.sim.kernel import KernelProgram, WarpContext
from repro.sim.launch import Application, HostLaunch, KernelLaunch
from repro.sim.replay import (
    CachedApplication,
    ReplayKernel,
    TraceCounts,
    replay_application,
)


def fresh_run(abbr, cdp, config):
    app = build_application(abbr, cdp=cdp)
    return GPUSimulator(config).run_application(app)


class TestTraceCounts:
    def test_mirrors_live_counting(self, tiny_gpu):
        """The templated totals equal those a plain application's run
        reports (every warp through its generator)."""
        app = build_application("NW")
        cached = CachedApplication(app)
        live = fresh_run("NW", False, tiny_gpu)
        totals = cached.total_counts
        assert totals.instructions == live.instructions
        assert totals.op_mix == live.op_mix
        assert totals.mem_mix == live.mem_mix
        assert totals.warp_occupancy == {
            k: v for k, v in live.warp_occupancy.items() if v
        }

    def test_merge_adds(self):
        a, b = TraceCounts(), TraceCounts()
        a.instructions, b.instructions = 3, 4
        a.op_mix = {"int": 3}
        b.op_mix = {"int": 1, "fp": 3}
        a.merge(b)
        assert a.instructions == 7
        assert a.op_mix == {"int": 4, "fp": 3}


class TestReplayKernel:
    def test_marks_warps_precounted(self):
        app = build_application("NW")
        cached = CachedApplication(app)
        launch = next(
            op.launch for op in cached.host_program()
            if isinstance(op, HostLaunch)
        )
        kernel = launch.kernel
        assert isinstance(kernel, ReplayKernel)
        # Static resources must match or occupancy/admission changes.
        base = kernel.base
        assert kernel.cta_threads == base.cta_threads
        assert kernel.regs_per_thread == base.regs_per_thread
        assert kernel.smem_per_cta == base.smem_per_cta

    def test_same_trace_objects_on_replay(self):
        app = build_application("NW")
        cached = CachedApplication(app)
        launch = next(
            op.launch for op in cached.host_program()
            if isinstance(op, HostLaunch)
        )
        kernel = launch.kernel
        from repro.sim.kernel import WarpContext

        ctx = WarpContext(0, 0, kernel.warps_per_cta, launch.num_ctas,
                          args=launch.args)
        first = list(kernel.warp_trace(ctx))
        second = list(kernel.warp_trace(ctx))
        assert all(x is y for x, y in zip(first, second))
        assert len(first) == len(second)


def _brute_force_walk(launch):
    """(counts, total, max_cta, descendants) of one launch, scanning
    every instruction of every warp and recursing into each LAUNCH."""
    counts = TraceCounts()
    total = max_cta = descendants = 0
    kernel = launch.kernel
    for cta_id in range(launch.num_ctas):
        cta_total = 0
        for warp_id in range(kernel.warps_per_cta):
            ctx = WarpContext(cta_id, warp_id, kernel.warps_per_cta,
                              launch.num_ctas, args=launch.args)
            for instr in kernel.warp_trace(ctx):
                counts.count(instr)
                cta_total += instr.repeat
                if instr.op is OpClass.LAUNCH:
                    child = _brute_force_walk(instr.child)
                    counts.merge(child[0])
                    cta_total += child[1]
                    descendants += 1 + child[3]
        total += cta_total
        max_cta = max(max_cta, cta_total)
    return counts, total, max_cta, descendants


def _as_tuple(counts):
    return (counts.instructions, counts.op_mix, counts.mem_mix,
            counts.warp_occupancy)


class TestLaunchWalk:
    """The materializer scans only warps whose op mix counts a launch;
    its profiles must equal a walk that scans every instruction."""

    @pytest.mark.parametrize("abbr", ["PairHMM", "STAR", "NW"])
    def test_profiles_match_a_brute_force_walk(self, abbr):
        cached = CachedApplication(build_application(abbr, cdp=True))
        total = TraceCounts()
        launches = 0
        for op in cached.host_program():
            if not isinstance(op, HostLaunch):
                continue
            counts, work, max_cta, descendants = _brute_force_walk(op.launch)
            profile = cached.launch_profiles[cached.launch_key(op.launch)]
            assert _as_tuple(profile[0]) == _as_tuple(counts)
            assert profile[1:] == (work, max_cta, descendants)
            total.merge(counts)
            launches += descendants
        assert _as_tuple(cached.total_counts) == _as_tuple(total)
        assert launches > 0, "a CDP variant must launch children"


class TestReferenceCounting:
    """A materialized application is freed as soon as its last reference
    goes, without waiting for the cyclic collector."""

    @pytest.mark.parametrize("abbr,cdp", [("NW", False), ("NW", True),
                                          ("NvB", True)])
    def test_freed_without_the_cyclic_collector(self, abbr, cdp, tiny_gpu):
        gc.collect()
        gc.disable()
        try:
            entry = CachedApplication(build_application(abbr, cdp=cdp))
            replay_application(entry, GPUSimulator(tiny_gpu))
            ref = weakref.ref(entry)
            del entry
            assert ref() is None
        finally:
            gc.enable()


class TestReplayIdentity:
    @pytest.mark.parametrize("abbr", ["NW", "STAR", "CLUSTER"])
    @pytest.mark.parametrize("cdp", [False, True])
    def test_replay_matches_fresh_run(self, abbr, cdp, tiny_gpu):
        fresh = fresh_run(abbr, cdp, tiny_gpu)
        cached = CachedApplication(build_application(abbr, cdp=cdp))
        first = replay_application(cached, GPUSimulator(tiny_gpu))
        second = replay_application(cached, GPUSimulator(tiny_gpu))
        assert first == fresh
        assert second == fresh

    def test_run_application_credits_the_totals(self, tiny_gpu):
        """``run_application`` on a cached application is the replay:
        the totals are credited by the simulator itself, never left at
        zero for a caller to add."""
        cached = CachedApplication(build_application("NW"))
        direct = GPUSimulator(tiny_gpu).run_application(cached)
        replayed = replay_application(cached, GPUSimulator(tiny_gpu))
        assert dataclasses.asdict(direct) == dataclasses.asdict(replayed)
        assert direct.instructions == cached.total_counts.instructions > 0
        assert direct.op_mix == cached.total_counts.op_mix

    def test_replay_across_configs(self, tiny_gpu):
        """One materialization serves different timing configs."""
        other = GPUConfig(num_sms=3, num_mem_partitions=2)
        cached = CachedApplication(build_application("STAR", cdp=True))
        assert (
            replay_application(cached, GPUSimulator(tiny_gpu))
            == fresh_run("STAR", True, tiny_gpu)
        )
        assert (
            replay_application(cached, GPUSimulator(other))
            == fresh_run("STAR", True, other)
        )


class _TailKernel(KernelProgram):
    """Warp (cta=1, warp=1) ends its trace with ``tail``; every other
    warp issues three INTs and exits."""

    def __init__(self, tail):
        super().__init__("tail", 64)
        self.tail = tail

    def warp_trace(self, ctx):
        b = TraceBuilder()
        yield b.ints(3)
        if (ctx.cta_id, ctx.warp_id) == (1, 1):
            yield from self.tail(b)
        else:
            yield b.exit()


class _TailApp(Application):
    name = "tail"

    def __init__(self, tail):
        self.kernel = _TailKernel(tail)

    def host_program(self):
        yield HostLaunch(KernelLaunch(self.kernel, num_ctas=2))


class TestMalformedTraces:
    """A trace must end in its only EXIT.  One that does not fails at
    materialization, naming the warp, before any cycle is simulated:
    without an EXIT the warp would run off its trace mid-run, and
    instructions after it would be counted but never issued."""

    TAILS = {
        "no-exit": lambda b: [b.fps(2)],
        "after-exit": lambda b: [b.exit(), b.ints(1)],
        "two-exits": lambda b: [b.exit(), b.exit()],
    }

    @pytest.mark.parametrize("tail", TAILS.values(), ids=TAILS.keys())
    def test_materialization_names_the_warp(self, tail):
        with pytest.raises(ValueError,
                           match=r"'tail' \(cta=1, warp=1\) must end in "
                                 r"its only EXIT"):
            CachedApplication(_TailApp(tail), template=False)

    @pytest.mark.parametrize("tail", TAILS.values(), ids=TAILS.keys())
    def test_run_fails_before_simulating(self, tail, tiny_gpu):
        sim = GPUSimulator(tiny_gpu)
        with pytest.raises(ValueError, match=r"\(cta=1, warp=1\)"):
            sim.run_application(_TailApp(tail))
        assert sim.stats.kernel_launches == 0
