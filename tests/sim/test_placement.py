"""CTA placement: the load-ordered pick equals the scan it replaced.

``GPUSimulator`` places each CTA on the first SM of its load order
(ascending ``(used_threads, sm_id)``) that can admit it.  The rule it
must reproduce is the per-CTA scan kept frozen below: collect every SM
that can admit, take the ``min`` by the same key.  Hypothesis draws
small machines and applications mixing host grids with CDP children of
other footprints (some too big for an empty SM, so they go through the
forced admission), and both rules must place every CTA on the same SM
and give equal stats.
"""

import pytest
from hypothesis import given, settings, strategies as st

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

pytestmark = pytest.mark.differential


class ScanPlacementGPU(GPUSimulator):
    """The simulator with the per-CTA scan placement rule, frozen."""

    def _dispatch_pending(self) -> None:
        pending = self._pending_grids
        if not pending:
            return
        remaining = []
        for grid in pending:
            while not grid.dispatch_done:
                candidates = [
                    sm for sm in self.sms if sm.can_admit(grid.kernel)
                ]
                if not candidates:
                    break
                sm = min(candidates, key=lambda s: (s.used_threads, s.sm_id))
                cta = sm.admit_cta(grid, grid.available_time)
                cta.sm = sm
                if self._lookahead is not None:
                    self._lookahead.cta_admitted(cta)
                self._wake_sm(sm, max(sm.time, grid.available_time))
            if not grid.dispatch_done:
                remaining.append(grid)
        self._pending_grids = remaining

    def _force_admit_child(self) -> bool:
        for index, grid in enumerate(self._pending_grids):
            if grid.parent_warp is None or grid.dispatch_done:
                continue
            sm = min(self.sms, key=lambda s: (s.used_threads, s.sm_id))
            start = max(sm.time, grid.available_time)
            cta = sm.admit_cta(grid, start)
            cta.sm = sm
            if grid.dispatch_done:
                del self._pending_grids[index]
            if self._lookahead is not None:
                self._lookahead.cta_admitted(cta)
                self._lookahead.pending_changed()
            self._wake_sm(sm, start)
            return True
        return False


class FootprintKernel(KernelProgram):
    """ALU work and one load per warp, varying by position; warp 0 of
    every even CTA launches ``child`` (when set) and waits on it."""

    def __init__(self, name, footprint, child=None):
        cta_threads, regs, smem = footprint
        super().__init__(name, cta_threads, regs_per_thread=regs,
                         smem_per_cta=smem)
        self.child = child

    def warp_trace(self, ctx):
        b = TraceBuilder()
        yield b.ints(1 + (ctx.cta_id * 7 + ctx.warp_id * 3) % 23)
        yield b.ld_global([ctx.global_warp * 5 + len(self.name)])
        if self.child is not None and ctx.warp_id == 0 and ctx.cta_id % 2 == 0:
            yield b.launch(self.child)
            yield b.device_sync()
        yield b.ints(1 + (ctx.cta_id * 5 + ctx.warp_id) % 11)
        yield b.exit()


class LaunchApp(Application):
    name = "placement"

    def __init__(self, launches):
        self.launches = launches

    def host_program(self):
        for launch in self.launches:
            yield HostLaunch(launch)


footprints = st.tuples(
    st.sampled_from([32, 64, 128, 256]),  # threads per CTA
    st.sampled_from([16, 32, 64]),  # registers per thread
    st.sampled_from([0, 2048, 8192, 16384]),  # shared bytes per CTA
)
machines = st.fixed_dictionaries({
    "num_sms": st.integers(1, 6),
    "max_ctas_per_sm": st.integers(1, 4),
    "max_threads_per_sm": st.sampled_from([256, 384, 512, 1024]),
    "registers_per_sm": st.sampled_from([16384, 32768, 65536]),
    "shared_mem_per_sm": st.sampled_from([8192, 16384, 49152]),
    "scheduler": st.sampled_from(["lrr", "gto"]),
    "event_core": st.booleans(),
})
host_grids = st.lists(
    st.tuples(
        footprints,
        st.integers(1, 8),  # CTAs
        st.none() | st.tuples(footprints, st.integers(1, 4)),  # CDP child
    ),
    min_size=1,
    max_size=3,
)


def build_app(grids):
    launches = []
    for i, (footprint, num_ctas, child_spec) in enumerate(grids):
        child = None
        if child_spec is not None:
            child_footprint, child_ctas = child_spec
            child = KernelLaunch(
                FootprintKernel(f"child{i}", child_footprint), child_ctas
            )
        launches.append(KernelLaunch(
            FootprintKernel(f"host{i}", footprint, child), num_ctas
        ))
    return CachedApplication(LaunchApp(launches))


def placed(sim_cls, app, config):
    """``(stats dict, per-CTA (kernel, cta, SM, retire time))`` of one
    run, or the deadlock message when the machine cannot run it."""
    sim = sim_cls(GPUConfig(num_mem_partitions=2, **config))
    record = []
    sim.cta_observer = lambda cta, t: record.append(
        (cta.grid.kernel.name, cta.cta_id, cta.sm.sm_id, t)
    )
    try:
        stats = replay_application(app, sim)
    except SimulationDeadlock as exc:
        return str(exc)
    return stats.to_dict(), record


@settings(max_examples=80, deadline=None)
@given(machines, host_grids)
def test_load_order_places_like_the_scan(config, grids):
    app = build_app(grids)
    assert placed(GPUSimulator, app, config) == placed(
        ScanPlacementGPU, app, config
    )
