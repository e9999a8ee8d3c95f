"""Trace materialization and replay.

Config sweeps re-simulate the same application many times, but a
benchmark's instruction traces depend only on the *application* —
benchmark, CDP variant, dataset, workload options — never on the
timing knobs being swept (cache sizes, schedulers, NoC parameters, CTA
limits).  This module materializes every warp trace of an application
once and replays the same :class:`WarpInstruction` objects at every
subsequent sweep point, so generator resumption and instruction
construction happen once per application, not once per point.

The simulator runs nothing else: every warp replays a materialized
list, and an application's instruction, memory and occupancy mixes are
config-independent properties of its traces.  They are summed here,
once per application, into :class:`TraceCounts`, and
:meth:`GPUSimulator.finalize <repro.sim.gpu.GPUSimulator.finalize>`
credits them to each run's stats (``TraceCounts.merge_into``); the
issue loop does timing only.  ``CachedApplication(app,
template=False)`` is the live arm: every warp through its generator,
counted by the same walk.

The cache *key* policy lives with the sweep engine in
:mod:`repro.core.sweep` (``app_key``): no config knob invalidates a
materialized application.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import replace

from repro.isa.instructions import OpClass, WarpInstruction
from repro.isa.template import build_template, structure_matches
from repro.sim.kernel import KernelProgram, WarpContext
from repro.sim.launch import Application, HostLaunch, KernelLaunch
from repro.sim.stats import OCCUPANCY_BUCKETS, RunStats


class TraceCounts:
    """Config-independent instruction totals of one or more warp traces:
    dynamic instructions, the op and memory-space mixes, and the lane
    occupancy buckets, as the paper's Figs 8-10 report them."""

    __slots__ = ("instructions", "op_mix", "mem_mix", "warp_occupancy")

    def __init__(self):
        self.instructions = 0
        self.op_mix: dict[str, int] = {}
        self.mem_mix: dict[str, int] = {}
        self.warp_occupancy: dict[str, int] = {}

    def count(self, instr: WarpInstruction) -> None:
        """Credit one trace instruction (an ALU block ``repeat`` times,
        a memory access once per transaction)."""
        repeat = instr.repeat
        self.instructions += repeat
        key = instr.op._value_
        self.op_mix[key] = self.op_mix.get(key, 0) + repeat
        lanes = instr.active_lanes
        if lanes < 1:
            raise ValueError("active lanes must be in [1, 32]")
        bucket = OCCUPANCY_BUCKETS[(lanes - 1) // 4]
        self.warp_occupancy[bucket] = self.warp_occupancy.get(bucket, 0) + repeat
        mem = instr.mem
        if mem is not None:
            space = mem.space._value_
            self.mem_mix[space] = self.mem_mix.get(space, 0) + mem.transactions

    def merge(self, other: "TraceCounts") -> None:
        self.instructions += other.instructions
        for key, value in other.op_mix.items():
            self.op_mix[key] = self.op_mix.get(key, 0) + value
        for key, value in other.mem_mix.items():
            self.mem_mix[key] = self.mem_mix.get(key, 0) + value
        for key, value in other.warp_occupancy.items():
            self.warp_occupancy[key] = (
                self.warp_occupancy.get(key, 0) + value
            )

    def signature(self) -> tuple:
        """A canonical hashable identity for stratification.

        Two warps with equal signatures did the same amount and kind
        of work (instruction count, op mix, memory mix, lane
        occupancy) — the fallback equivalence when a kernel declares
        no ``trace_template`` (see ``ReplayKernel.class_key``).
        """
        return (
            self.instructions,
            tuple(sorted(self.op_mix.items())),
            tuple(sorted(self.mem_mix.items())),
            tuple(sorted(self.warp_occupancy.items())),
        )

    def merge_into(self, stats: RunStats) -> None:
        """Credit these totals to a finished run's statistics."""
        stats.instructions += self.instructions
        for key, value in self.op_mix.items():
            stats.op_mix[key] = stats.op_mix.get(key, 0) + value
        for key, value in self.mem_mix.items():
            stats.mem_mix[key] = stats.mem_mix.get(key, 0) + value
        for key, value in self.warp_occupancy.items():
            stats.warp_occupancy[key] += value


class _TemplateClass:
    """Per-equivalence-class state of one kernel's trace templating.

    Lifecycle: the first member's trace is kept as a probe; the second
    member solves the relocation against it (``build_template``); later
    members instantiate, falling back to live generation (which narrows
    the template's candidate sets) whenever a relocation is ambiguous
    for their bases.  ``dead`` classes always generate live.
    """

    __slots__ = ("probe", "template", "counts", "dead")

    def __init__(self):
        self.probe = None  # (instrs, bases) of the first member
        self.template = None
        self.counts = None  # shared: structure equality => equal counts
        self.dead = False


class ReplayKernel(KernelProgram):
    """A kernel whose warp traces are materialized once and replayed.

    Wraps a base :class:`KernelProgram` with identical static resources
    so occupancy and admission behave the same.  Each warp's totals are
    counted as its trace materializes (see :class:`CachedApplication`).

    Materialization itself takes the cheapest of three paths: a memo
    hit on the warp's identity, a template instantiation (array-backed
    address relocation over one generator run per equivalence class,
    see :mod:`repro.isa.template`), or the live generator.
    """

    def __init__(self, base: KernelProgram, owner: "CachedApplication"):
        super().__init__(
            base.name,
            base.cta_threads,
            regs_per_thread=base.regs_per_thread,
            smem_per_cta=base.smem_per_cta,
            const_bytes=base.const_bytes,
        )
        self.base = base
        # A weak proxy: the owner holds its kernels, so a strong
        # back-reference would make every application a reference
        # cycle, freed only by the cyclic collector.  A kernel is only
        # ever used through its live owner.
        self._owner = weakref.proxy(owner)
        self._traces: dict = {}
        #: (class key, bases) -> entry: warps with identical relocation
        #: parameters share one materialized instruction list outright.
        self._instances: dict = {}
        self._classes: dict = {}
        #: warp key -> class key (see :meth:`class_key`); a decoded
        #: store entry arrives with this table and ``_traces`` full.
        self._class_keys: dict = {}
        #: (num_ctas, args token) -> the launch's per-CTA rows of warp
        #: traces (:meth:`keep_rows`, :meth:`cta_rows`)
        self._rows: dict = {}

    def _generate(self, ctx: WarpContext) -> tuple[list, "TraceCounts"]:
        """Run the live generator and count one warp's trace.

        The trace must end in its only EXIT: an instruction after it
        would be counted but never issued, and a trace without one
        would run off its end mid-simulation.
        """
        self._owner.template_live += 1
        counts = TraceCounts()
        instrs: list[WarpInstruction] = []
        for instr in self.base.warp_trace(ctx):
            if instr.op is OpClass.LAUNCH:
                # Route CDP children through the cache too, so their
                # traces replay across sweep points as well.
                instr = WarpInstruction(
                    OpClass.LAUNCH,
                    instr.mask,
                    child=self._owner.wrap_launch(instr.child),
                )
            counts.count(instr)
            instrs.append(instr)
        exits = counts.op_mix.get("exit", 0)
        if exits != 1 or instrs[-1].op is not OpClass.EXIT:
            raise ValueError(
                f"trace of kernel {self.name!r} (cta={ctx.cta_id}, "
                f"warp={ctx.warp_id}) must end in its only EXIT "
                f"({exits} EXIT(s) in {len(instrs)} instructions)"
            )
        return (instrs, counts)

    def _verify_instantiation(self, ctx: WarpContext, instrs: list) -> None:
        """REPRO_TRACE_VERIFY: instantiated trace == live generator."""
        live = list(self.base.warp_trace(ctx))
        same = structure_matches(live, instrs) and all(
            x.mem is None or x.mem.lines == y.mem.lines
            for x, y in zip(live, instrs)
        )
        if not same:
            raise RuntimeError(
                f"template instantiation diverged from the live "
                f"generator for kernel {self.name!r} "
                f"(cta={ctx.cta_id}, warp={ctx.warp_id}); the kernel's "
                f"trace_template contract is dishonest"
            )

    def _from_template(
        self, ctx: WarpContext, tkey, bases: tuple
    ) -> tuple[list, "TraceCounts"]:
        state = self._classes.get(tkey)
        if state is None:
            state = self._classes[tkey] = _TemplateClass()
            entry = self._generate(ctx)
            state.probe = (entry[0], bases)
            state.counts = entry[1]
            return entry
        if state.template is not None:
            instrs = state.template.instantiate(bases)
            if instrs is not None:
                if self._owner.verify:
                    self._verify_instantiation(ctx, instrs)
                self._owner.template_hits += 1
                return (instrs, state.counts)
            # Ambiguous relocation for this member: generate live and
            # let the result narrow the template's candidate sets.
            entry = self._generate(ctx)
            if not state.template.refine(entry[0], bases):
                state.dead = True
                state.template = None
            return entry
        if state.dead:
            return self._generate(ctx)
        # Second member: solve the relocation against the probe.
        entry = self._generate(ctx)
        probe_instrs, probe_bases = state.probe
        template = build_template(
            probe_instrs, probe_bases, entry[0], bases
        )
        if template is None:
            state.dead = True
        else:
            state.template = template
        state.probe = None
        return entry

    def entry_for(self, ctx: WarpContext) -> tuple[list, TraceCounts]:
        """Materialized (instructions, counts) for one warp's trace."""
        key = (
            ctx.cta_id,
            ctx.warp_id,
            ctx.num_ctas,
            self._owner.args_token(ctx.args),
        )
        entry = self._traces.get(key)
        if entry is None:
            spec = (
                self.base.trace_template(ctx)
                if self._owner.template
                else None
            )
            if spec is None:
                entry = self._generate(ctx)
            else:
                tkey, bases = spec
                inst_key = (tkey, bases)
                entry = self._instances.get(inst_key)
                if entry is None:
                    entry = self._from_template(ctx, tkey, bases)
                    self._instances[inst_key] = entry
            self._traces[key] = entry
        return entry

    def warp_trace(self, ctx: WarpContext):
        # The materialized list itself: Warp wraps traces in ``iter``,
        # and list iterators resume faster than a generator would.
        return self.entry_for(ctx)[0]

    def _rows_key(self, num_ctas: int, args: dict) -> tuple:
        return (num_ctas, self._owner.args_token(args))

    def keep_rows(self, num_ctas: int, args: dict, rows: list) -> None:
        """Store one launch's per-CTA rows for :meth:`cta_rows`; the
        owner's profile walk (``CachedApplication._profile``) builds
        them."""
        self._rows[self._rows_key(num_ctas, args)] = rows

    def cta_rows(self, num_ctas: int, args: dict) -> list:
        """The launch's rows as the owner's profile walk left them:
        building a :class:`CachedApplication` walks every launch it can
        run, CDP children included."""
        rows = self._rows.get(self._rows_key(num_ctas, args))
        if rows is None:
            raise LookupError(
                f"kernel {self.name!r}: no trace rows for this launch of "
                f"{num_ctas} CTAs; only launches its CachedApplication "
                "runs are profiled"
            )
        return rows

    def class_key(self, ctx: WarpContext):
        """The equivalence-class identity of one warp, for sampling.

        Template-declaring kernels use their template key (structural
        equivalence); everything else falls back to the canonical
        :meth:`TraceCounts.signature` of the materialized trace, which
        still groups same-work warps even when relocation equivalence
        was never declared.  Keys are only ever compared for equality;
        a decoded store entry carries them as app-wide class ids.
        """
        key = (
            ctx.cta_id,
            ctx.warp_id,
            ctx.num_ctas,
            self._owner.args_token(ctx.args),
        )
        cls = self._class_keys.get(key)
        if cls is None:
            spec = (
                self.base.trace_template(ctx)
                if self._owner.template
                else None
            )
            if spec is not None:
                cls = ("tpl", self.name, spec[0])
            else:
                cls = ("mix", self.name) + self.entry_for(ctx)[1].signature()
            self._class_keys[key] = cls
        return cls

    def preload(self, launch: KernelLaunch, entries: list, classes: list
                ) -> None:
        """Install every warp of ``launch`` from a decoded store entry.

        ``entries[i]`` and ``classes[i]`` belong to the warp at flat
        grid position ``i``.  A preloaded kernel needs no live
        generator: :meth:`entry_for` and :meth:`class_key` always hit.
        """
        token = self._owner.args_token(launch.args)
        warps = self.warps_per_cta
        for index, (entry, cls) in enumerate(zip(entries, classes)):
            key = (index // warps, index % warps, launch.num_ctas, token)
            self._traces[key] = entry
            self._class_keys[key] = cls


class CachedApplication(Application):
    """An application with a fully materialized, replayable host program.

    Building one walks the base application's host program, wraps every
    kernel (host-launched and CDP children, shared per base kernel) in a
    :class:`ReplayKernel`, materializes every warp trace it will ever
    execute, and sums their :class:`TraceCounts` into ``total_counts``.
    Each run then drives the simulator through the same instruction
    objects, and the simulator credits ``total_counts`` to the run's
    stats when it finalizes.  A trace-store hit is the same type,
    rebuilt by :meth:`decoded` without a generator run.
    """

    def __init__(
        self,
        app: Application,
        template: bool = True,
        verify: bool | None = None,
    ):
        # Replay preserves the base application's launch behaviour, so
        # its run-ahead eligibility carries over verbatim.
        self._start(app.name, getattr(app, "may_device_launch", True),
                    template, verify)
        self.base = app
        self.ops = [
            HostLaunch(self.wrap_launch(op.launch))
            if isinstance(op, HostLaunch)
            else op
            for op in app.host_program()
        ]
        self._materialize_all()

    @classmethod
    def decoded(cls, name: str, may_device_launch: bool, load_ops
                ) -> "CachedApplication":
        """An application rebuilt from a trace-store entry.

        ``load_ops(entry)`` returns the host program, whose launches
        run :class:`ReplayKernel` instances owned by ``entry`` and
        :meth:`~ReplayKernel.preload`-ed with every warp (see
        :func:`repro.sim.trace_store.decode_bytes`).  There is no base
        application and no live generator behind it; the totals and
        launch profiles come from the same walk a cold build runs.
        """
        entry = cls.__new__(cls)
        entry._start(name, may_device_launch, template=True, verify=False)
        entry.base = None
        entry.ops = load_ops(entry)
        entry._materialize_all()
        return entry

    # -- construction ------------------------------------------------------
    def _start(self, name: str, may_device_launch: bool, template: bool,
               verify: bool | None) -> None:
        self.name = name
        self.may_device_launch = may_device_launch
        #: Layer-1 switch: instantiate warp traces from per-class
        #: templates where kernels declare them (``template=False``
        #: forces the live generator for every warp — the baseline arm
        #: of the trace benchmark).
        self.template = template
        #: When set (or REPRO_TRACE_VERIFY=1), every template
        #: instantiation is checked against the live generator.
        self.verify = (
            os.environ.get("REPRO_TRACE_VERIFY", "") not in ("", "0")
            if verify is None
            else verify
        )
        self.template_hits = 0
        self.template_live = 0
        self._wrapped: dict[int, ReplayKernel] = {}
        # id(args-dict) -> (args, token): the strong reference keeps the
        # id stable for the lifetime of the cache entry.
        self._args_tokens: dict[int, tuple] = {}

    def wrap_launch(self, launch: KernelLaunch) -> KernelLaunch:
        kernel = launch.kernel
        if isinstance(kernel, ReplayKernel):  # pragma: no cover - defensive
            return launch
        wrapped = self._wrapped.get(id(kernel))
        if wrapped is None:
            wrapped = ReplayKernel(kernel, self)
            self._wrapped[id(kernel)] = wrapped
        return replace(launch, kernel=wrapped)

    def args_token(self, args: dict) -> str:
        """A stable, hashable token for a launch-args dict."""
        if not args:
            return ""
        cached = self._args_tokens.get(id(args))
        if cached is None:
            token = repr(sorted(args.items()))
            self._args_tokens[id(args)] = (args, token)
            return token
        return cached[1]

    def launch_key(self, launch: KernelLaunch) -> tuple:
        """The identity under which a launch's profile is memoized."""
        return (
            id(launch.kernel),
            launch.num_ctas,
            self.args_token(launch.args),
        )

    def _materialize_all(self) -> None:
        """Expand every launch (including CDP children) exactly as one
        execution would, accumulating the application-wide totals.

        Each distinct launch additionally records a profile in
        ``launch_profiles`` (keyed by :meth:`launch_key`): its
        aggregate :class:`TraceCounts`, total and per-CTA-max
        instruction work, and CDP descendant count — all including
        descendants.  The sampled estimator
        (:mod:`repro.sim.sampled`) reads these instead of re-walking
        every warp of every launch.
        """
        self.total_counts = TraceCounts()
        self.launch_profiles: dict[tuple, tuple] = {}
        for op in self.ops:
            if isinstance(op, HostLaunch):
                self.total_counts.merge(self._profile(op.launch)[0])

    def _profile(self, launch: KernelLaunch) -> tuple:
        """``launch``'s memoized profile, walking it (and its CDP
        children) on first sight and leaving its per-CTA trace rows on
        the kernel (:meth:`ReplayKernel.cta_rows`).  A method, not a
        closure: a recursive closure would hold itself and ``self`` in a
        reference cycle."""
        key = self.launch_key(launch)
        profile = self.launch_profiles.get(key)
        if profile is not None:
            return profile
        kernel = launch.kernel
        agg = TraceCounts()
        total = 0
        max_cta = 0
        descendants = 0
        rows = []
        for cta_id in range(launch.num_ctas):
            cta_total = 0
            row = []
            for warp_id in range(kernel.warps_per_cta):
                ctx = WarpContext(
                    cta_id=cta_id,
                    warp_id=warp_id,
                    warps_per_cta=kernel.warps_per_cta,
                    num_ctas=launch.num_ctas,
                    args=launch.args,
                )
                instrs, counts = kernel.entry_for(ctx)
                row.append(instrs)
                agg.merge(counts)
                cta_total += counts.instructions
                # The exact per-warp op mix says whether this trace
                # launches at all; most never do, and need no scan.
                if "launch" not in counts.op_mix:
                    continue
                for instr in instrs:
                    if instr.op is OpClass.LAUNCH:
                        child = self._profile(instr.child)
                        agg.merge(child[0])
                        cta_total += child[1]
                        descendants += 1 + child[3]
            rows.append(row)
            total += cta_total
            max_cta = max(max_cta, cta_total)
        # The rows every replay of this launch places its CTAs from.
        kernel.keep_rows(launch.num_ctas, launch.args, rows)
        profile = (agg, total, max_cta, descendants)
        self.launch_profiles[key] = profile
        return profile

    # -- replay ------------------------------------------------------------
    def host_program(self):
        yield from self.ops

    def describe(self) -> str:
        return f"cached:{self.name}"


def replay_application(entry: CachedApplication, simulator) -> RunStats:
    """Run a cached application; the simulator credits its totals."""
    return simulator.run_application(entry)
