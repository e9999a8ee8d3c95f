"""Outside-in layer attribution for the traced benchmark run.

The traced run wraps the public entry point of each simulator layer
from here, without editing the program.  Every name is patched where
callers look it up: class attributes for methods (every instance
resolves them at call time), and each module that imported a function
by name (``registry`` binds ``dataset_for``, ``client`` binds
``stats_from_dict``).

Hot boundaries (cache, memory, NoC, DRAM, kernel trace generation) are
aggregated as ``[count, inclusive_ns, child_ns]`` per layer with a
plain stack, so a layer's self time is its inclusive time minus the
wrapped calls it made.  Coarse boundaries (dataset synthesis, trace
materialization, ``run_application``, ``estimate_application``,
``run_sweep``) and the benchmark's own root spans (set-up, op, service
job) are also kept as spans with an op id and a parent, written as a
Chrome trace at exit.

Recording happens only inside root spans, so the benchmark's own
bookkeeping between ops (digests, oracle checks) is never attributed
to a program layer.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager

#: Layers in report order; each maps to the public calls wrapped for it.
LAYERS = (
    "data", "kernels", "replay", "sim", "cache", "memory", "noc", "dram",
    "sampled", "sweep", "stats",
)


class Tracer:
    """Per-process layer aggregates, coarse spans and sim snapshots."""

    def __init__(self):
        self.active = False
        self.layers = {name: [0, 0, 0] for name in LAYERS}
        self.root_ns = 0
        self.spans: list[dict] = []
        #: one counter snapshot per ``run_application`` return
        self.sims: list[tuple] = []
        self.template = [0, 0]  # CachedApplication template hits, live
        self.op = None
        self._stack: list[int] = []
        self._coarse: list[int] = []

    def reset(self) -> None:
        """Forget everything (a forked child starts from a clean slate).

        In place: the installed wrappers hold these very containers.
        """
        for agg in self.layers.values():
            agg[:] = [0, 0, 0]
        for items in (self.spans, self.sims, self._stack, self._coarse):
            items.clear()
        self.template[:] = [0, 0]
        self.root_ns = 0
        self.active = False
        self.op = None

    @contextmanager
    def root(self, name: str, op=None):
        """A root span: the unit that layer shares are taken of."""
        self.op = op
        self.active = True
        start = time.perf_counter_ns()
        span = self._open(name, start)
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            self.active = False
            self._close(span, elapsed)
            self.root_ns += elapsed
            self.op = None

    def _open(self, name: str, start: int) -> dict:
        span = {
            "name": name, "ts": start, "op": self.op, "pid": os.getpid(),
            "id": len(self.spans),
            "parent": self._coarse[-1] if self._coarse else None,
        }
        self.spans.append(span)
        self._coarse.append(span["id"])
        return span

    def _close(self, span: dict, elapsed: int) -> None:
        self._coarse.pop()
        span["dur"] = elapsed

    def wrap(self, layer: str, fn, coarse: bool = False, count=None,
             on_result=None):
        """``fn`` with its calls attributed to ``layer`` while active."""
        agg = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = clock()
            span = self._open(layer, start) if coarse else None
            stack.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                if span is not None:
                    self._close(span, elapsed)
            agg[0] += 1 if count is None else count(result)
            agg[1] += elapsed
            agg[2] += child
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------
    def snapshot(self) -> dict:
        """Everything another process needs to merge this one's record."""
        return {
            "layers": self.layers,
            "root_ns": self.root_ns,
            "spans": self.spans,
            "sims": self.sims,
            "template": self.template,
        }

    def merge(self, other: dict) -> None:
        for name, (calls, incl, child) in other["layers"].items():
            agg = self.layers[name]
            agg[0] += calls
            agg[1] += incl
            agg[2] += child
        self.root_ns += other["root_ns"]
        self.spans.extend(other["spans"])
        self.sims.extend(tuple(row) for row in other["sims"])
        self.template[0] += other["template"][0]
        self.template[1] += other["template"][1]

    def write_chrome_trace(self, path) -> None:
        """Coarse spans as a Chrome ``trace_event`` file."""
        base = min((s["ts"] for s in self.spans), default=0)
        events = [
            {
                "name": span["name"], "ph": "X", "pid": span["pid"],
                "tid": 0, "ts": (span["ts"] - base) / 1000.0,
                "dur": span.get("dur", 0) / 1000.0,
                "args": {"op": span["op"], "id": span["id"],
                         "parent": span["parent"]},
            }
            for span in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


#: Fields of one ``run_application`` snapshot, taken as it returns
#: (``finalize`` has run, so the counters are final even if a caller
#: such as ``replay_application`` credits more totals afterwards).
SIM_FIELDS = (
    "issued", "cycles", "launches", "cache_accesses", "tex", "dram_requests",
    "noc_messages", "l1_loads", "l1_load_misses", "l2_loads",
    "l2_load_misses",
)


def _sim_snapshot(stats) -> tuple:
    return (
        sum(stats.sm_instructions.values()),
        stats.cycles,
        stats.kernel_launches + stats.device_launches,
        stats.l1.accesses + stats.l2.accesses + stats.const_cache.accesses,
        stats.mem_mix.get("tex", 0),
        stats.dram.requests,
        stats.noc.messages,
        stats.l1.load_accesses,
        stats.l1.load_misses,
        stats.l2.load_accesses,
        stats.l2.load_misses,
    )


def _sim_totals(tracer: Tracer) -> dict:
    return dict(zip(SIM_FIELDS, (sum(col) for col in zip(*tracer.sims))))


def _kernel_classes():
    from repro.sim.kernel import KernelProgram

    found, todo = [], list(KernelProgram.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro.kernels.") \
                and "warp_trace" in cls.__dict__:
            found.append(cls)
    return found


def _drained(warp_trace):
    """Generation is timed only if the generator runs inside the span."""

    def drained(self, ctx):
        return list(warp_trace(self, ctx))

    return drained


def install(tracer: Tracer):
    """Patch every layer boundary; returns a function that undoes it."""
    import repro.core.sweep as sweep
    import repro.data.datasets as datasets
    import repro.kernels  # noqa: F401 - registers every KernelProgram
    import repro.kernels.registry as registry
    import repro.service.client as client
    import repro.sim.sampled as sampled
    import repro.sim.stats as stats
    from repro.sim.cache import Cache
    from repro.sim.dram import DRAMChannel
    from repro.sim.gpu import GPUSimulator
    from repro.sim.interconnect.network import Network
    from repro.sim.memory import MemorySubsystem
    from repro.sim.replay import CachedApplication

    def sim_done(args, result):
        tracer.sims.append(_sim_snapshot(result))

    def materialized(args, result):
        app = args[0]
        tracer.template[0] += app.template_hits
        tracer.template[1] += app.template_live

    patches = [
        (datasets, "dataset_for", "data", {"coarse": True}),
        (registry, "dataset_for", "data", {"coarse": True}),
        (CachedApplication, "__init__", "replay",
         {"coarse": True, "on_result": materialized}),
        (GPUSimulator, "run_application", "sim",
         {"coarse": True, "on_result": sim_done}),
        (Cache, "access", "cache", {}),
        (Cache, "probe_hits", "cache", {"count": lambda k: k}),
        (MemorySubsystem, "line_request", "memory", {}),
        (MemorySubsystem, "line_requests", "memory", {}),
        (MemorySubsystem, "writeback", "memory", {}),
        (Network, "request", "noc", {}),
        (Network, "response", "noc", {}),
        (DRAMChannel, "access", "dram", {}),
        (sampled, "estimate_application", "sampled", {"coarse": True}),
        (sweep, "run_sweep", "sweep", {"coarse": True}),
        (stats.RunStats, "to_dict", "stats", {}),
        (stats, "stats_from_dict", "stats", {}),
        (client, "stats_from_dict", "stats", {}),
    ]
    patches += [
        (cls, "warp_trace", "kernels", {"drain": True})
        for cls in _kernel_classes()
    ]

    undo = []
    for owner, name, layer, options in patches:
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        target = _drained(original) if options.pop("drain", False) \
            else original
        setattr(owner, name, tracer.wrap(layer, target, **options))
        undo.append((owner, name, original))

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


def boundary_mismatches(tracer: Tracer) -> list[str]:
    """Wrapper counts that disagree with the simulator's own counters.

    A fast path that bypasses a wrapped boundary makes the wrapper
    count fall short of ``RunStats``, so attribution would silently
    shrink; this turns that into a loud failure of the traced run.
    """
    totals = _sim_totals(tracer)
    if not totals:
        return []
    problems = []
    if totals["tex"]:
        problems.append(
            f"{totals['tex']} texture transactions: RunStats has no "
            "texture-cache counter to check cache.calls against"
        )
    for layer, field, what in (
        ("cache", "cache_accesses", "L1 + L2 + const accesses"),
        ("dram", "dram_requests", "DRAM requests"),
        ("noc", "noc_messages", "NoC messages"),
    ):
        seen = tracer.layers[layer][0]
        if seen != totals[field]:
            problems.append(
                f"{layer}.calls = {seen} but RunStats counted "
                f"{totals[field]} {what}"
            )
    return problems


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and self-time shares from a merged record."""
    root = max(tracer.root_ns, 1)
    sims = _sim_totals(tracer)
    out = {}
    attributed = 0
    for name in LAYERS:
        calls, incl, child = tracer.layers[name]
        share = (incl - child) / root
        attributed += share
        out[f"{name}.calls"] = calls
        out[f"{name}.self_frac"] = share
    out["kernels.warps"] = out.pop("kernels.calls")
    out["sim.runs"] = out.pop("sim.calls")
    sim_self = tracer.layers["sim"][1] - tracer.layers["sim"][2]
    issued = sims.get("issued", 0)
    out["sim.instructions"] = issued
    out["sim.cycles"] = sims.get("cycles", 0)
    out["sim.launches"] = sims.get("launches", 0)
    out["sim.ns_per_instr"] = sim_self / issued if issued else 0.0
    out["cache.l1_miss_frac"] = _ratio(sims.get("l1_load_misses", 0),
                                       sims.get("l1_loads", 0))
    out["cache.l2_miss_frac"] = _ratio(sims.get("l2_load_misses", 0),
                                       sims.get("l2_loads", 0))
    hits, live = tracer.template
    out["replay.template_hit_frac"] = _ratio(hits, hits + live)
    out["trace.unattributed_frac"] = 1.0 - attributed
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
