"""Sampled estimation: extrapolate whole-run stats from a CTA sample.

Config-space sweeps (Figs 11-22) mostly need accurate *rankings*
across config points, yet every point pays the full cycle-accurate
cost.  This module trades bounded accuracy for large speedups: it
cycle-accurately simulates a stratified sample of each grid's CTAs on
a proportionally scaled-down machine and extrapolates the whole-run
statistics, attaching a confidence interval to every estimated metric.
DESIGN.md "Sampled estimation" records the rationale and the ablation
that every component below survived.

:func:`estimate_application` runs three stages, each testable alone:

- :func:`_plan` decides what to simulate.  *Host launches* are
  stratified by shape and relative work, and a capped share of each
  stratum is kept; dropped launches are extrapolated from their
  stratum's duration rate (the host is synchronous, so dropping a
  launch removes its grid wholesale; memcpys are always kept).  When
  a write->read line-overlap scan finds a wavefront pipeline (SW/NW
  diagonals: launch ``i+1`` loads lines launch ``i`` stored), each
  kept launch is preceded by its dropped predecessors as unmeasured
  *warm-up* launches and kept launches run whole.  *CTAs within a
  kept launch* are stratified by the tuple of per-warp
  :meth:`~repro.sim.replay.ReplayKernel.class_key` values and sampled
  as whole CTAs (barrier semantics).  Every stratum at either level
  keeps at least ``SAMPLE_MIN_PER_CLASS`` members.  Multi-wave grids
  run on a *proportional miniature* (SMs and memory partitions scaled
  by the within-launch work fraction, partitions only to divisors so
  address camping survives, L2 in step); single-wave grids keep their
  wave count and are measured twice more instead (below).
- :func:`_replay` runs the miniature, snapshotting cache counters at
  every host-launch boundary.  In the single-wave regime a *probe*
  replays about half the sample, and an *SM-boost* probe reruns the
  sample with twice the SMs but the same memory system, which
  separates per-SM crowding from memory pressure.  Apart from
  :func:`_exact_fallback` it is the only code that builds a
  :class:`GPUSimulator`.
- :func:`_extrapolate` is pure arithmetic.  Config-independent totals
  (instructions, op/mem mix, launch counts, host overheads) are exact.
  A launch's duration is its work/concurrency bound times the measured
  packing factor, raised in the single-wave regime to the one duration
  candidate: a hyperbolic queueing curve ``D(w) = A / (1 - w/C)``
  through the measurement and the probe, capped by the serialized
  bound ``D * W/w``.  Cache counters and stalls scale per launch
  stratum to its population work; DRAM/NoC traffic is pooled over the
  whole sampled run.  Intervals are the stratified-sampling half-width
  plus a declared model margin (``ERROR_BOUNDS``, wider for CDP),
  validated by ``tests/sim/test_sampled_accuracy.py``.

When NOT to trust estimates
---------------------------
- CDP variants: child grids launch under sampled parents only, so
  device-side contention is extrapolated through parent durations —
  bounds are declared wider, and rankings are more trustworthy than
  absolute values.
- Kernels with no ``trace_template`` (data-dependent traces): the
  fallback work-signature strata still group same-work CTAs, but
  *where* the work touches memory may differ within a class.
- Tiny grids: every CTA is sampled and the run degenerates to the
  exact core (``exact_fallback``) — correct, just not faster.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field, replace

from repro.isa.instructions import MemSpace, OpClass
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator
from repro.sim.kernel import KernelProgram, WarpContext
from repro.sim.launch import Application, HostLaunch, KernelLaunch
from repro.sim.occupancy import ctas_per_sm
from repro.sim.replay import (
    CachedApplication,
    TraceCounts,
    replay_application,
)
from repro.sim.stats import RunStats, StallReason

#: z-score of the nominal two-sided 95% confidence level.
Z_95 = 1.96

#: Declared model margins, added to the statistical half-width.  The
#: ``_cdp`` variants apply when the application device-launches (see
#: "When NOT to trust estimates" above).  ``cycles``/``traffic`` are
#: relative to the estimate; ``miss_rate``/``stall_frac`` are absolute
#: (the quantities live in [0, 1]).  Validated empirically by
#: ``tests/sim/test_sampled_accuracy.py`` across the full suite.
ERROR_BOUNDS = {
    "cycles_rel": 0.12,
    "cycles_rel_cdp": 0.25,
    "traffic_rel": 0.15,
    "traffic_rel_cdp": 0.30,
    "miss_rate_abs": 0.06,
    "miss_rate_abs_cdp": 0.10,
    "stall_frac_abs": 0.10,
    "stall_frac_abs_cdp": 0.15,
}

#: Relative spread assumed for a stratum observed only once (no
#: within-stratum variance estimate exists; this stands in for it).
_SINGLETON_CV = 0.25

#: Minimum members sampled per stratum (CTA classes and launch
#: strata alike), so rare classes are never extrapolated from zero
#: observations.
SAMPLE_MIN_PER_CLASS = 2

#: Cap on host launches simulated per launch stratum.  Stratum-rate
#: sampling error shrinks with the absolute sample size, not the
#: fraction, so apps issuing thousands of similar launches (NvB) gain
#: nothing past a few dozen observations — the cap is what lets
#: launch-heavy apps beat the ``1/sample_fraction`` speedup ceiling.
SAMPLE_MAX_LAUNCHES_PER_CLASS = 24


@dataclass
class EstimatedRunStats(RunStats):
    """A :class:`RunStats` produced by sampling, with error bounds.

    Subclassing keeps every consumer of ``RunStats`` working
    transparently (``ipc``, ``device_time()``, report tables, the
    process-pool pickle path).  Two extra fields carry the estimation
    contract:

    - ``intervals``: metric name -> ``(lo, hi)`` confidence interval
      at the nominal 95% level *plus* the declared model margin.
    - ``sample``: how the estimate was produced (fractions, seed,
      strata, the scaled machine, ``exact_fallback``).
    """

    intervals: dict = field(default_factory=dict)
    sample: dict = field(default_factory=dict)

    @property
    def estimated(self) -> bool:
        """False when the run degenerated to the exact core."""
        return not self.sample.get("exact_fallback", False)

    def interval(self, metric: str) -> tuple | None:
        return self.intervals.get(metric)

    def covers(self, metric: str, value: float) -> bool:
        """True when ``value`` falls inside ``metric``'s interval."""
        bounds = self.intervals.get(metric)
        if bounds is None:
            raise KeyError(f"no interval declared for {metric!r}")
        return bounds[0] <= value <= bounds[1]

    def to_dict(self) -> dict:
        """JSON-safe payload; ``stats_from_dict`` rebuilds this class.

        The interval bounds serialize as two-element lists (JSON has
        no tuples); the deserializer restores tuples.
        """
        data = super().to_dict()
        data["intervals"] = {
            metric: list(bounds)
            for metric, bounds in self.intervals.items()
        }
        data["sample"] = self.sample
        return data


# -- sampling plan ---------------------------------------------------------

def _derived_seed(seed: int, index: int, name: str, num_ctas: int) -> int:
    """A per-launch RNG seed, stable across processes and hosts.

    ``hash()`` is salted per interpreter, so the seed is derived with
    blake2b — the determinism satellite requires identical samples
    regardless of ``--jobs`` process topology.
    """
    payload = f"{seed}:{index}:{name}:{num_ctas}".encode()
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big"
    )


def _profile(cached: CachedApplication, launch: KernelLaunch) -> tuple:
    """``(counts, total, max_cta, descendants)`` of a launch.

    Work is in instructions incl. CDP descendants: ``total`` drives
    work-proportional scaling (traffic, multi-wave durations);
    ``max_cta`` is the critical-path basis for single-wave launches,
    whose duration tracks their longest CTA.  The replay layer records
    the profile of every launch at materialization time.
    """
    return cached.launch_profiles[cached.launch_key(launch)]


class _LaunchPlan:
    """One host launch's strata, sample, and measured durations."""

    def __init__(self, index: int, launch: KernelLaunch,
                 cached: CachedApplication, fraction: float, seed: int,
                 sig: tuple):
        kernel = launch.kernel
        self.index = index
        #: the launch stratum this launch belongs to
        self.sig = sig
        self.launch = launch
        self.num_ctas = launch.num_ctas
        warps = kernel.warps_per_cta

        # Stratify by the tuple of per-warp class keys; iteration in
        # cta_id order makes stratum discovery order deterministic.
        strata: dict[tuple, list[int]] = {}
        cta_work: list[int] = []
        for cta_id in range(launch.num_ctas):
            sig = []
            work = 0
            for warp_id in range(warps):
                ctx = WarpContext(
                    cta_id=cta_id,
                    warp_id=warp_id,
                    warps_per_cta=warps,
                    num_ctas=launch.num_ctas,
                    args=launch.args,
                )
                sig.append(kernel.class_key(ctx))
                instrs, counts = kernel.entry_for(ctx)
                work += counts.instructions
                if counts.op_mix.get("launch"):
                    for instr in instrs:
                        if instr.op is OpClass.LAUNCH:
                            work += _profile(cached, instr.child)[1]
            strata.setdefault(tuple(sig), []).append(cta_id)
            cta_work.append(work)
        self.cta_work = cta_work
        self.strata = list(strata.values())

        rng = random.Random(
            _derived_seed(seed, index, kernel.name, launch.num_ctas)
        )
        self.sampled: list[list[int]] = []
        for members in self.strata:
            n = min(
                len(members),
                max(SAMPLE_MIN_PER_CLASS,
                    math.ceil(fraction * len(members))),
            )
            self.sampled.append(sorted(rng.sample(members, n)))

        # Slot (cta_id in the shrunken grid) -> original cta_id, in
        # ascending original order so dispatch looks like a real grid.
        self.slot_to_orig = sorted(
            cta_id for chosen in self.sampled for cta_id in chosen
        )
        stratum_of = {
            cta_id: h
            for h, chosen in enumerate(self.sampled)
            for cta_id in chosen
        }
        self.slot_stratum = [
            stratum_of[cta_id] for cta_id in self.slot_to_orig
        ]
        #: the shrunken grid replaying the sample
        self.kernel = _SampledKernel(kernel, self.slot_to_orig,
                                     launch.num_ctas)
        #: concurrent CTAs per SM (set by the plan's regime pass)
        self.cps = 0

    @property
    def n_sampled(self) -> int:
        return len(self.slot_to_orig)

    @property
    def sampled_work(self) -> int:
        return sum(self.cta_work[cta_id] for cta_id in self.slot_to_orig)

    @property
    def total_work(self) -> int:
        return sum(self.cta_work)

    def work_of(self, cta_ids) -> int:
        return sum(self.cta_work[cta_id] for cta_id in cta_ids)

    def probe_subset(self) -> list[int]:
        """Roughly half the sample, for the second contention point.

        Taking the first half of each stratum's (already random)
        chosen members keeps the subset deterministic and preserves
        class coverage; strata sampled once stay at one member.  The
        probe must itself be *contended* — the convex queueing
        curve reads curvature from the secant between two loaded
        points, and a solo CTA carries no queueing signal — and its
        class mix must mirror the sample's, or the secant tilts
        toward whichever classes were kept.
        """
        chosen2: list[int] = []
        for chosen in self.sampled:
            chosen2.extend(chosen[: max(1, len(chosen) // 2)])
        return sorted(chosen2)

    def estimate_duration(
        self, durations: list[list[float]], measured: float,
        conc_sampled: int, conc_full: int,
    ) -> tuple[float, float]:
        """(estimated full duration, statistical sd) for this launch.

        ``durations`` holds the measured CTA durations per stratum;
        ``measured`` is the launch's wall duration on the miniature
        machine at ``conc_sampled`` concurrent-CTA capacity; the full
        machine offers ``conc_full``.  A grid's duration is bounded
        below by the work bound (total CTA-time over the concurrency)
        *and* by its longest CTA — single-wave grids sit on the max
        bound, saturated multi-wave grids on the work bound.  The
        measured packing factor (wall time over the sampled bound)
        captures scheduling/dispatch inefficiency in whatever regime
        the miniature ran, and transfers to the full bound built from
        the stratified population estimate of total CTA-time.
        """
        t_sampled = 0.0
        t_hat = 0.0
        variance = 0.0
        max_duration = 0.0
        cvs = []
        for observed in durations:
            mean = sum(observed) / len(observed)
            if len(observed) >= 2 and mean > 0:
                var = sum((d - mean) ** 2 for d in observed) / (
                    len(observed) - 1
                )
                cvs.append(math.sqrt(var) / mean)
        pooled_cv = sum(cvs) / len(cvs) if cvs else _SINGLETON_CV
        for members, chosen, observed in zip(
            self.strata, self.sampled, durations
        ):
            big_n, small_n = len(members), len(chosen)
            subtotal = sum(observed)
            t_sampled += subtotal
            t_hat += (big_n / small_n) * subtotal
            max_duration = max(max_duration, max(observed))
            if big_n == small_n:
                continue  # fully observed stratum: no sampling error
            mean = subtotal / small_n
            if small_n >= 2:
                var = sum((d - mean) ** 2 for d in observed) / (
                    small_n - 1
                )
            else:
                var = (pooled_cv * mean) ** 2
            variance += big_n * (big_n - small_n) * var / small_n
        t_sampled = max(t_sampled, 1.0)
        t_hat = max(t_hat, 1.0)
        # Every class is observed, so the sampled max estimates the
        # grid max (template classmates share their trace's duration
        # scale even when scheduling perturbs individuals).
        bound_sampled = max(t_sampled / conc_sampled, max_duration, 1.0)
        bound_full = max(t_hat / conc_full, max_duration, 1.0)
        packing = measured / bound_sampled
        estimate = bound_full * packing
        # Sampling error only enters through the work-bound term; when
        # the max bound dominates, the estimate is driven by observed
        # durations and the statistical width collapses accordingly.
        if bound_full > max_duration:
            rel_se = math.sqrt(variance) / t_hat
        else:
            rel_se = 0.0
        return estimate, estimate * rel_se


class _SampledKernel(KernelProgram):
    """A shrunken grid that replays the *original* CTAs it sampled.

    Traces depend on the warp's position in the original grid (work is
    grid-strided in most kernels), so slot ``i`` places row
    ``slot_to_orig[i]`` of the original launch's trace rows — the
    miniature machine runs bit-identical per-CTA instruction streams,
    just fewer of them.
    """

    def __init__(self, base, slot_to_orig: list[int], orig_num_ctas: int):
        super().__init__(
            base.name,
            base.cta_threads,
            regs_per_thread=base.regs_per_thread,
            smem_per_cta=base.smem_per_cta,
            const_bytes=base.const_bytes,
        )
        self.base = base
        self.slot_to_orig = slot_to_orig
        self.orig_num_ctas = orig_num_ctas

    def cta_rows(self, num_ctas: int, args: dict) -> list:
        rows = self.base.cta_rows(self.orig_num_ctas, args)
        return [rows[orig] for orig in self.slot_to_orig]


class _SampledApplication(Application):
    """The cached application with each host grid shrunk to its sample.

    Its runs are timing-only: the totals come from the cached
    application (``_Plan.total_counts``), so its own are empty.
    """

    def __init__(self, cached: CachedApplication, ops: list):
        self.name = cached.name
        self.may_device_launch = cached.may_device_launch
        self.ops = ops
        self.total_counts = TraceCounts()

    def host_program(self):
        yield from self.ops

    def describe(self) -> str:
        return f"sampled:{self.name}"


# -- inter-launch locality -------------------------------------------------

#: Minimum write->read line-overlap fraction that counts as a
#: producer->consumer dependency between adjacent host launches.
_LOCALITY_THRESHOLD = 0.05

#: How many CTAs of a probed launch the detector scans, how many
#: warps within each scanned CTA, and how many instructions within
#: each scanned warp.  Overlap is structural (wavefront neighbours
#: touch each other's lines throughout the trace), so a few evenly
#: spaced CTAs/warps/instructions give the signal at a fraction of
#: the trace-walk cost on large grids.
_LOCALITY_SCAN_CTAS = 4
_LOCALITY_SCAN_WARPS = 4
_LOCALITY_SCAN_INSTRS = 512


def _evenly_spaced(count: int, cap: int):
    """Up to ``cap`` evenly spaced indices out of ``range(count)``."""
    if count <= cap:
        return range(count)
    stride = count / cap
    return sorted({int(k * stride) for k in range(cap)})


def _launch_lines(launch: KernelLaunch, reads: set, writes: set) -> None:
    """Collect the global/local lines a launch loads and stores.

    Scans at most ``_LOCALITY_SCAN_CTAS`` evenly spaced CTAs and
    ``_LOCALITY_SCAN_WARPS`` warps within each (overlap detection
    needs a signal, not a census).  Recurses into CDP children: a CDP
    parent's data flow lives in its child grids, and the warm-up
    decision must see through that.
    """
    kernel = launch.kernel
    scan = _evenly_spaced(launch.num_ctas, _LOCALITY_SCAN_CTAS)
    for cta_id in scan:
        for warp_id in _evenly_spaced(
            kernel.warps_per_cta, _LOCALITY_SCAN_WARPS
        ):
            ctx = WarpContext(
                cta_id=cta_id,
                warp_id=warp_id,
                warps_per_cta=kernel.warps_per_cta,
                num_ctas=launch.num_ctas,
                args=launch.args,
            )
            instrs, _counts = kernel.entry_for(ctx)
            if len(instrs) > _LOCALITY_SCAN_INSTRS:
                scan_instrs = [
                    instrs[i] for i in
                    _evenly_spaced(len(instrs), _LOCALITY_SCAN_INSTRS)
                ]
            else:
                scan_instrs = instrs
            for instr in scan_instrs:
                if instr.op is OpClass.LDST:
                    if instr.mem.space in (MemSpace.GLOBAL, MemSpace.LOCAL):
                        (writes if instr.mem.store else reads).update(
                            instr.mem.lines
                        )
                elif instr.op is OpClass.LAUNCH:
                    _launch_lines(instr.child, reads, writes)


def _warmup_depth(launches: list[KernelLaunch], sigs: list[tuple]) -> int:
    """How many predecessors feed a launch's loads (0, 1 or 2).

    Probes a few adjacent launch pairs spread across the program: if a
    consumer launch loads a meaningful fraction of the lines a
    predecessor stored (wavefront pipelines: SW/NW diagonals), dropped
    predecessors must be replayed as warm-up or the sample's cache
    rates go cold.  Read-read sharing deliberately does *not* trigger
    warm-up — only true dependencies do, so independent-launch
    applications (NvB comparisons) keep their full launch-sampling
    speedup.

    Probe windows whose launch-stratum ``sigs`` pattern was already
    inspected are skipped: a program of structurally identical
    launches (PairHMM's batch loop) answers the question once instead
    of three times, and the trace walk is the detector's whole cost on
    large grids.
    """
    n = len(launches)
    if n < 2:
        return 0
    # Three adjacent pairs spread across the program (n // 2 is always
    # a valid consumer index once n >= 2).
    probes = sorted(
        {j for j in (n // 4, n // 2, (3 * n) // 4) if 1 <= j < n}
    )
    depth = 0
    seen_windows: set[tuple] = set()
    for j in probes:
        if depth >= 2:
            break
        window = tuple(sigs[max(0, j - 2):j + 1])
        if window in seen_windows:
            continue
        seen_windows.add(window)
        reads_j: set = set()
        _launch_lines(launches[j], reads_j, set())
        if not reads_j:
            continue
        for back in (1, 2):
            if back > j or depth >= back:
                continue
            writes_p: set = set()
            _launch_lines(launches[j - back], set(), writes_p)
            overlap = len(writes_p & reads_j) / len(reads_j)
            if overlap >= _LOCALITY_THRESHOLD:
                depth = back
    return depth


# -- per-launch counter snapshots ------------------------------------------

_CACHE_FIELDS = ("accesses", "hits", "misses", "load_accesses",
                 "load_misses", "evictions", "writebacks")
_DRAM_FIELDS = ("requests", "row_hits", "row_misses", "data_cycles",
                "activation_cycles", "queue_cycles")
_NOC_FIELDS = ("messages", "bytes", "latency_cycles", "contention_cycles")
_COUNTER_GROUPS = ("l1", "const_cache", "l2")


def _counter_snapshot(sim: GPUSimulator) -> dict:
    """Cumulative cache counters and stalls, read mid-run.

    Every counter below is bumped synchronously as requests retire, so
    at a host-launch boundary (the host program is synchronous) the
    sums are exact for everything issued so far.
    """
    return {
        "l1": [sum(getattr(sm.l1.stats, f) for sm in sim.sms)
               for f in _CACHE_FIELDS],
        "const_cache": [
            sum(getattr(sm.const_cache.stats, f) for sm in sim.sms)
            for f in _CACHE_FIELDS
        ],
        "l2": [sum(getattr(b.stats, f) for b in sim.memory.l2_banks)
               for f in _CACHE_FIELDS],
        "stalls": dict(sim.stats.stalls),
    }


def _snapshot_delta(prev: dict, cur: dict) -> dict:
    delta = {
        group: [c - p for p, c in zip(prev[group], cur[group])]
        for group in _COUNTER_GROUPS
    }
    delta["stalls"] = {
        reason: cycles - prev["stalls"].get(reason, 0)
        for reason, cycles in cur["stalls"].items()
    }
    return delta


def _rate_se(deltas: list[dict], group: str) -> float:
    """Standard error of the per-launch load-miss rate across deltas."""
    loads_i = _CACHE_FIELDS.index("load_accesses")
    misses_i = _CACHE_FIELDS.index("load_misses")
    rates = [
        delta[group][misses_i] / delta[group][loads_i]
        for delta in deltas
        if delta[group][loads_i] > 0
    ]
    if len(rates) < 2:
        return 0.0
    mean = sum(rates) / len(rates)
    var = sum((r - mean) ** 2 for r in rates) / (len(rates) - 1)
    return math.sqrt(var / len(rates))


# -- scaling helpers -------------------------------------------------------


def _scaled_machine(
    config: GPUConfig, work_fraction: float, sm_floor: int = 1
) -> GPUConfig:
    """The proportional miniature: fewer SMs/partitions, L2 in step.

    The L2 scales with the partition count so each partition's slice
    (how :mod:`repro.sim.memory` banks it) keeps its full-machine
    geometry — per-request hit behaviour is then comparable.  Per-SM
    resources are untouched.  ``sm_floor`` keeps every sampled grid at
    its original wave count (a single-wave grid must not be forced
    into two waves by the shrink).
    """
    sms = max(sm_floor, 1, round(config.num_sms * work_fraction))
    # Partitions are addressed by ``line % P``: scaling to a
    # non-divisor P would re-shuffle which lines share a partition and
    # destroy alignment structure (power-of-two stride camping turns
    # into an even spread — observed as a 1.7x phantom speedup on
    # PairHMM).  Restricting P' to divisors of P maps ``r mod P`` onto
    # ``r mod P'`` consistently, so camped traffic stays camped.
    target = max(1, round(config.num_mem_partitions * work_fraction))
    parts = max(
        d for d in range(1, config.num_mem_partitions + 1)
        if config.num_mem_partitions % d == 0 and d <= target
    )
    l2 = config.l2
    slice_floor = l2.line_bytes * l2.assoc * parts
    l2_bytes = max(
        slice_floor, (l2.size_bytes * parts) // config.num_mem_partitions
    )
    return config.with_(
        num_sms=sms,
        num_mem_partitions=parts,
        l2=replace(l2, size_bytes=l2_bytes),
        sample_fraction=0.0,
        telemetry_interval=0,
    )


def _scale_int(value: int, ratio: float) -> int:
    return int(round(value * ratio))


def _interval(center: float, half: float, lo_clamp=None, hi_clamp=None
              ) -> tuple:
    lo, hi = center - half, center + half
    if lo_clamp is not None:
        lo = max(lo, lo_clamp)
    if hi_clamp is not None:
        hi = min(hi, hi_clamp)
    return (lo, hi)


# -- entry point -----------------------------------------------------------

def estimate_application(
    cached: CachedApplication, config: GPUConfig
) -> EstimatedRunStats:
    """Estimate a full run's stats from a stratified CTA sample.

    ``config.sample_fraction`` must be positive; ``sample_seed`` fully
    determines the sample (no global RNG state is read or written).
    When every CTA ends up sampled anyway (tiny grids, fraction 1.0)
    the run degenerates to a bit-exact replay on the unscaled machine
    and the returned intervals have zero width.
    """
    fraction = config.sample_fraction
    if not 0.0 < fraction <= 1.0:
        raise ValueError(
            "estimate_application requires 0 < sample_fraction <= 1 "
            f"(got {fraction})"
        )
    if not isinstance(cached, CachedApplication):
        raise TypeError(
            "estimation needs a CachedApplication (the replay layer "
            "provides the equivalence classes and exact totals); got "
            f"{type(cached).__name__}"
        )
    plan = _plan(cached, config)
    if plan is None:
        return _exact_fallback(cached, config)
    return _extrapolate(plan, _replay(plan, cached), config)


# -- stage 1: plan ---------------------------------------------------------

@dataclass
class _Plan:
    """Everything decided before the first simulated cycle.

    ``works``/``basis`` are per host launch: work incl. CDP
    descendants, and the extrapolation basis (max-CTA work for
    single-wave launches, total work for multi-wave ones).  ``plans``
    are the kept launches in program order; ``ops`` is the miniature
    host program, whose host launches ``span_kinds`` marks ``"kept"``
    (measured) or ``"warmup"``.  ``probed`` lists the half-sample
    probe's ``(plan position, CTA subset)`` pairs, replayed by
    ``probe_ops``; ``boost_sms`` is the SM-boost machine (0: no run).
    """

    total_counts: TraceCounts
    works: list[int]
    basis: list[int]
    launch_strata: dict[tuple, list[int]]
    plans: list[_LaunchPlan]
    warmup: set[int]
    warm_depth: int
    ops: list
    span_kinds: list[str]
    inner: GPUConfig
    resident_limited: bool
    probed: list[tuple[int, list[int]]]
    probe_ops: list
    boost_sms: int
    device_launches: int
    total_ctas: int
    sampled_ctas: int
    total_work: int
    sampled_work: int
    within_fraction: float


def _launch_strata(launches: list[KernelLaunch], works: list[int]
                   ) -> dict[tuple, list[int]]:
    """Group launches by shape, then by relative work.

    Each shape group is split where works differ by more than 2x from
    the cluster's first (smallest) member — clustering relative to the
    group avoids splitting near-identical launches across an absolute
    log2 boundary.
    """
    shape_groups: dict[tuple, list[int]] = {}
    for i, ln in enumerate(launches):
        shape = (ln.kernel.name, ln.num_ctas, ln.kernel.warps_per_cta)
        shape_groups.setdefault(shape, []).append(i)
    strata: dict[tuple, list[int]] = {}
    for shape, members in shape_groups.items():
        members = sorted(members, key=lambda i: (works[i], i))
        cluster_floor = None
        bucket = -1
        for i in members:
            if cluster_floor is None or works[i] > 2 * cluster_floor:
                cluster_floor = works[i]
                bucket += 1
            strata.setdefault(shape + (bucket,), []).append(i)
    return strata


def _keep_launches(strata: dict[tuple, list[int]], config: GPUConfig,
                   name: str, launches_total: int) -> set[int]:
    """The seeded launch-level sample: a capped share of each stratum."""
    rng = random.Random(
        _derived_seed(config.sample_seed, -1, name, launches_total)
    )
    kept: set[int] = set()
    for members in strata.values():
        n = min(
            len(members),
            SAMPLE_MAX_LAUNCHES_PER_CLASS,
            max(
                SAMPLE_MIN_PER_CLASS,
                math.ceil(config.sample_fraction * len(members)),
            ),
        )
        n = max(n, min(len(members), SAMPLE_MIN_PER_CLASS))
        kept.update(rng.sample(members, n))
    return kept


def _warmup_launches(cached: CachedApplication, launches, sigs,
                     kept: set[int]) -> tuple[int, set[int]]:
    """``(depth, warm-up launch indices)`` for the kept set.

    When a dropped launch produced lines a kept launch loads, the kept
    launch would run cold and its measured cache rates and duration
    would not represent the exact run.  The missing predecessors are
    replayed as warm-up (full grids, excluded from measurement).
    """
    if len(kept) >= len(launches):
        return 0, set()
    # Depth depends only on the application's launch sequence, so it
    # memoizes on the owner exactly like materialized traces do —
    # sweeps re-estimate the same application across many configs and
    # pay the trace walk once.
    depth = getattr(cached, "_sampled_warmup_depth", None)
    if depth is None:
        depth = _warmup_depth(launches, sigs)
        cached._sampled_warmup_depth = depth
    warmup: set[int] = set()
    if depth:
        for i in kept:
            for j in range(max(0, i - depth), i):
                if j not in kept:
                    warmup.add(j)
    return depth, warmup


def _plan(cached: CachedApplication, config: GPUConfig) -> _Plan | None:
    """Decide what to simulate; ``None`` when the run must be exact."""
    launches = [
        op.launch for op in cached.ops if isinstance(op, HostLaunch)
    ]
    profiles = [_profile(cached, ln) for ln in launches]
    works = [profile[1] for profile in profiles]
    launches_total = len(launches)
    total_work = sum(works)
    total_ctas = sum(ln.num_ctas for ln in launches)

    strata = _launch_strata(launches, works)
    sigs: list = [None] * launches_total
    for sig, members in strata.items():
        for i in members:
            sigs[i] = sig
    kept = _keep_launches(strata, config, cached.name, launches_total)
    warm_depth, warmup = _warmup_launches(cached, launches, sigs, kept)
    if warm_depth and len(kept) + len(warmup) >= launches_total:
        return None  # warm-up would replay everything anyway
    # With warm-up, kept launches run whole: a CTA subset lands on
    # different SMs than the warm-up data and would defeat it through
    # the per-SM L1.
    within_target = 1.0 if warm_depth else config.sample_fraction

    # The measurement program, and beside it the half-sample probe's:
    # a partial sample misses the queueing pressure of the CTAs it
    # left out, and replaying ~half the sample gives a second (work,
    # duration) point for the contention curve.  Launches in the same
    # stratum share structure, so one probe per stratum suffices.
    plans: list[_LaunchPlan] = []
    ops: list = []
    span_kinds: list[str] = []
    probed: list[tuple[int, list[int]]] = []
    probe_ops: list = []
    probed_sigs: set[tuple] = set()
    index = -1
    for op in cached.ops:
        if not isinstance(op, HostLaunch):
            ops.append(op)
            probe_ops.append(op)
            continue
        index += 1
        if index in warmup:
            ops.append(op)  # the original full grid, unmeasured
            span_kinds.append("warmup")
        if index not in kept:
            continue  # warm-up, or extrapolated from its stratum
        plan = _LaunchPlan(index, op.launch, cached, within_target,
                           config.sample_seed, sigs[index])
        span_kinds.append("kept")
        ops.append(HostLaunch(KernelLaunch(
            plan.kernel, plan.n_sampled, args=op.launch.args
        )))
        subset = plan.probe_subset()
        # Singleton strata have no smaller point to probe.
        if (plan.n_sampled < plan.num_ctas and plan.sig not in probed_sigs
                and subset != plan.slot_to_orig):
            probe_ops.append(HostLaunch(KernelLaunch(
                _SampledKernel(op.launch.kernel, subset, plan.num_ctas),
                len(subset), args=op.launch.args,
            )))
            probed.append((len(plans), subset))
            probed_sigs.add(plan.sig)
        plans.append(plan)

    sampled_ctas = sum(plan.n_sampled for plan in plans)
    if total_work == 0 or (
        len(kept) >= launches_total and sampled_ctas >= total_ctas
    ):
        return None  # nothing was left out

    # Pick the dilution model by where the work lives: grids that fit
    # on the machine in one wave (resident-limited) contend with their
    # own CTAs — run them unscaled and measure contention with the
    # probe; multi-wave grids keep machine-level pressure under the
    # proportional miniature.
    cps_memo: dict = {}

    def cps_of(kernel) -> int:
        occ_key = (kernel.cta_threads, kernel.regs_per_thread,
                   kernel.smem_per_cta)
        if occ_key not in cps_memo:
            cps_memo[occ_key] = ctas_per_sm(config, kernel)
        return cps_memo[occ_key]

    single_wave_work = 0
    basis: list[int] = []
    for ln, (_counts, work, max_cta, _cdp) in zip(launches, profiles):
        if ln.num_ctas <= config.num_sms * cps_of(ln.kernel):
            single_wave_work += work
            basis.append(max(1, max_cta))
        else:
            basis.append(max(1, work))
    sm_floor = 1
    for plan in plans:
        plan.cps = cps_of(plan.launch.kernel)
        sm_floor = max(sm_floor, math.ceil(plan.n_sampled / plan.cps))
    sampled_work = sum(plan.sampled_work for plan in plans)
    # The host is synchronous — contention happens among one launch's
    # co-resident CTAs — so the dilution machine is driven by the
    # *within-launch* fraction, not the launch-sampling fraction.
    within_fraction = sampled_work / max(
        1, sum(plan.total_work for plan in plans)
    )
    inner = _scaled_machine(config, within_fraction, sm_floor)
    resident_limited = single_wave_work * 2 > total_work
    if not resident_limited:
        probed, probe_ops = [], []
    return _Plan(
        total_counts=cached.total_counts, works=works, basis=basis,
        launch_strata=strata, plans=plans, warmup=warmup,
        warm_depth=warm_depth, ops=ops, span_kinds=span_kinds,
        inner=inner, resident_limited=resident_limited, probed=probed,
        probe_ops=probe_ops,
        boost_sms=_boost_sms(config, inner, plans, probed),
        device_launches=sum(profile[3] for profile in profiles),
        total_ctas=total_ctas, sampled_ctas=sampled_ctas,
        total_work=total_work, sampled_work=sampled_work,
        within_fraction=within_fraction,
    )


def _boost_sms(config: GPUConfig, inner: GPUConfig,
               plans: list[_LaunchPlan], probed) -> int:
    """SMs for the SM-boost probe, or 0 when it cannot move the estimate.

    The boost replays the sample with twice the SMs but the *identical*
    memory system, so its duration ratio isolates per-SM crowding.
    That only matters when the miniature is *more* crowded per SM than
    the full machine (rounding floors on small-SM sweeps), so the run
    is gated on a 10% overload: rounding jitter (19 SMs for a 0.247
    work fraction of 78) cannot move the estimate, while the
    floored-at-one-SM cases sit at 25%+.
    """
    sm_boost = min(config.num_sms, 2 * inner.num_sms)
    overloaded = any(
        plans[pos].sampled_work * config.num_sms
        > 1.1 * plans[pos].total_work * inner.num_sms
        for pos, _subset in probed
    )
    if probed and overloaded and sm_boost > inner.num_sms:
        return sm_boost
    return 0


# -- stage 2: replay -------------------------------------------------------

@dataclass
class _Measured:
    """What the miniature-machine runs observed, per kept launch."""

    #: the measurement run's stats (host-side totals, timeline)
    stats: RunStats
    #: host-grid duration of each kept launch (>= 1 cycle)
    spans: list[float]
    #: CTA durations per kept launch, per CTA stratum
    durations: list[list[list[float]]]
    #: cache-counter and stall deltas per kept launch
    deltas: list[dict]
    #: ``(work, duration)`` per entry of ``_Plan.probed``
    probes: list[tuple[float, float]]
    #: each kept launch's duration on the SM-boost machine (0.0: the
    #: boost probe did not run)
    boosts: list[float]
    #: dirty lines still cached when the measurement run ended
    dirty_left: int


def _host_spans(stats: RunStats, launches: int) -> list[float]:
    """Durations of the ``launches`` host-launched grids, in order.

    The host program is synchronous, so host-origin timeline entries
    complete in launch order.
    """
    spans = [
        max(float(entry["end"] - entry["start"]), 1.0)
        for entry in stats.kernel_timeline
        if entry["origin"] == "host"
    ]
    if len(spans) != launches:  # pragma: no cover - invariant
        raise RuntimeError(
            f"sampled run recorded {len(spans)} host grids for "
            f"{launches} launches"
        )
    return spans


def _kept(values: list, span_kinds: list[str]) -> list:
    """The entries of ``values`` that belong to measured launches."""
    return [v for v, kind in zip(values, span_kinds) if kind == "kept"]


def _replay(plan: _Plan, cached: CachedApplication) -> _Measured:
    """Run the measurement, half-sample probe and SM-boost probe."""
    simulator = GPUSimulator(plan.inner)
    position = {id(lp.kernel): pos for pos, lp in enumerate(plan.plans)}
    durations = [[[] for _ in lp.strata] for lp in plan.plans]

    def observe(cta, t):
        pos = position.get(id(cta.grid.kernel))
        if pos is None:
            return  # a CDP child grid: folded into its parent's time
        slot = plan.plans[pos].slot_stratum[cta.cta_id]
        durations[pos][slot].append(t - cta.start_time)

    simulator.cta_observer = observe

    # Snapshot the memory system at every host-launch boundary: the
    # host is synchronous, so each launch's traffic has fully retired
    # when the observer fires, and consecutive-snapshot deltas
    # attribute every counter to the launch that caused it.  Warm-up
    # launches get their own deltas, which are then *discarded* —
    # that is the whole point of excluding them from measurement.
    last = [_counter_snapshot(simulator)]  # all zero before the run
    deltas: list[dict] = []

    def on_launch(_launch, _grid):
        snap = _counter_snapshot(simulator)
        deltas.append(_snapshot_delta(last[0], snap))
        last[0] = snap

    simulator.launch_observer = on_launch
    stats = simulator.run_application(_SampledApplication(cached, plan.ops))
    spans = _host_spans(stats, len(plan.span_kinds))
    dirty_left = sum(
        bank.dirty_resident() for bank in simulator.memory.l2_banks
    ) + sum(sm.l1.dirty_resident() for sm in simulator.sms)

    probes: list[tuple[float, float]] = []
    if plan.probed:
        prober = GPUSimulator(plan.inner)
        probe_spans = _host_spans(prober.run_application(
            _SampledApplication(cached, plan.probe_ops)
        ), len(plan.probed))
        probes = [
            (float(plan.plans[pos].work_of(subset)), span)
            for (pos, subset), span in zip(plan.probed, probe_spans)
        ]
    boosts = [0.0] * len(plan.plans)
    if plan.boost_sms:
        booster = GPUSimulator(plan.inner.with_(num_sms=plan.boost_sms))
        boosts = _kept(_host_spans(booster.run_application(
            _SampledApplication(cached, plan.ops)
        ), len(plan.span_kinds)), plan.span_kinds)
    return _Measured(
        stats=stats,
        spans=_kept(spans, plan.span_kinds),
        durations=durations,
        deltas=_kept(deltas, plan.span_kinds),
        probes=probes,
        boosts=boosts,
        dirty_left=dirty_left,
    )


# -- stage 3: extrapolate --------------------------------------------------

def _launch_estimates(plan: _Plan, measured: _Measured,
                      config: GPUConfig) -> list[tuple[float, float]]:
    """``(estimated duration, sd)`` for every kept launch.

    Launches in a probed stratum follow a hyperbolic capacity curve
    ``D(w) = A / (1 - w/C)`` through the measurement and the
    half-sample probe (queueing delay is convex in offered load, so
    the secant between two low-load points underestimates growth),
    never below the work/concurrency bound and capped by the
    serialized bound.  The half-sample probe's growth exponent ``e_a``
    conflates per-SM crowding with memory pressure; the SM-boost probe
    isolates the crowding exponent ``e_c``, and attributing that share
    of ``e_a`` to per-SM load shrinks the extrapolation target to
    ``total_work * (inner/config SMs)^(e_c/e_a)`` — the work an
    equally-loaded miniature SM would host.
    """
    inner = plan.inner
    sm_shrink = inner.num_sms / config.num_sms
    curves: dict[tuple, tuple[float, float]] = {}
    for (pos, _subset), (w2, d2) in zip(plan.probed, measured.probes):
        lp = plan.plans[pos]
        w1, d1 = float(lp.sampled_work), measured.spans[pos]
        if w1 > w2 and d1 > d2:
            ratio = d1 / d2
            shrink = 1.0
            d_boost = measured.boosts[pos]
            if d_boost and d_boost < d1 and sm_shrink < 1.0:
                e_a = math.log(ratio) / math.log(w1 / w2)
                e_c = min(e_a, (
                    math.log(d1 / d_boost)
                    / math.log(plan.boost_sms / inner.num_sms)
                ))
                if e_a > 1e-9:
                    shrink = sm_shrink ** (e_c / e_a)
            curves[lp.sig] = ((ratio - 1.0) / (ratio * w1 - w2), shrink)

    estimates = []
    for pos, lp in enumerate(plan.plans):
        conc_full = min(lp.num_ctas, config.num_sms * lp.cps)
        conc_sampled = min(lp.n_sampled, inner.num_sms * lp.cps)
        d1 = measured.spans[pos]
        estimate, sd = lp.estimate_duration(
            measured.durations[pos], d1, conc_sampled, conc_full
        )
        curve = curves.get(lp.sig)
        if curve is not None and lp.n_sampled < lp.num_ctas:
            inv_cap, shrink = curve  # 1/C and the target-load shrink
            w1 = float(lp.sampled_work)
            # ``shrink`` folds the crowding/memory decomposition into
            # the target load: a miniature that is *more* loaded per
            # SM than the real machine extrapolates downward from its
            # inflated d1 instead of serializing upward.
            full_w = float(lp.total_work) * shrink
            serial = d1 * full_w / w1
            if inv_cap * full_w < 1.0:
                hyper = (
                    d1 * (1.0 - inv_cap * w1) / (1.0 - inv_cap * full_w)
                )
            else:
                hyper = serial  # pole before the full grid: saturated
            # Never below the work/concurrency bound estimate, never
            # above the serialized scaling of d1 at the target load
            # (which can sit *below* d1 when the miniature was
            # overloaded per SM).
            estimate = min(max(hyper, estimate), serial)
            # The extrapolated contention term is a model, not an
            # estimator — carry a spread on it.
            sd = math.hypot(sd, 0.25 * abs(estimate - d1))
        estimates.append((estimate, sd))
    return estimates


def _stratum_cycles(plan: _Plan, measured: _Measured,
                    estimates: list[tuple[float, float]]
                    ) -> tuple[float, float, dict]:
    """Launch-level extrapolation: ``(cycles, variance, per stratum)``.

    Dropped launches take their stratum's work-weighted duration rate.
    The per-stratum map holds ``(estimated stratum cycles incl.
    extrapolated launches, measured cycles of the kept members)`` —
    the stall and counter scalers reuse the duration extrapolation.
    """
    position = {lp.index: pos for pos, lp in enumerate(plan.plans)}
    basis = plan.basis
    est_cycles = 0.0
    stat_var = 0.0
    stratum_cycles: dict[tuple, tuple[float, float]] = {}
    for sig, members in plan.launch_strata.items():
        kept = [position[i] for i in members if i in position]
        unseen_work = sum(basis[i] for i in members if i not in position)
        stratum_est = sum(estimates[pos][0] for pos in kept)
        stat_var += sum(estimates[pos][1] ** 2 for pos in kept)
        if unseen_work:
            stratum_work = sum(
                basis[plan.plans[pos].index] for pos in kept
            ) or 1
            rate = stratum_est / stratum_work
            stratum_est += unseen_work * rate
            rates = [
                estimates[pos][0] / basis[plan.plans[pos].index]
                for pos in kept
            ]
            if len(rates) >= 2:
                mean_r = sum(rates) / len(rates)
                sd_r = math.sqrt(
                    sum((r - mean_r) ** 2 for r in rates)
                    / (len(rates) - 1)
                )
            else:
                sd_r = _SINGLETON_CV * rate
            # Extrapolated launches share the estimated rate, so their
            # errors are correlated: scale the block, not each member.
            stat_var += (unseen_work * sd_r) ** 2 / len(kept)
        est_cycles += stratum_est
        stratum_cycles[sig] = (
            stratum_est, sum(measured.spans[pos] for pos in kept)
        )
    return est_cycles, stat_var, stratum_cycles


def _scale_counters(est: EstimatedRunStats, plan: _Plan,
                    measured: _Measured, config: GPUConfig,
                    est_cycles: float, stratum_cycles: dict) -> float:
    """Scale measured counters and stalls to the full run.

    Returns the DRAM writeback slack (see :func:`_set_intervals`).
    """
    stats_s = measured.stats
    inner = plan.inner
    # Per-stratum scaling of the measured per-launch counter deltas:
    # each launch stratum's sampled traffic is blown up to its
    # population work, so launch-composition bias cancels and warm-up
    # launches (absent from the kept deltas) never contaminate the
    # estimate.  Miss rates then fall out of the scaled numerators and
    # denominators instead of transferring raw pooled rates.
    stratum_entries: dict[tuple, list[dict]] = {}
    stratum_samp_work: dict[tuple, int] = {}
    for lp, delta in zip(plan.plans, measured.deltas):
        stratum_entries.setdefault(lp.sig, []).append(delta)
        stratum_samp_work[lp.sig] = (
            stratum_samp_work.get(lp.sig, 0) + lp.sampled_work
        )
    counter_acc = {
        group: [0.0] * len(_CACHE_FIELDS) for group in _COUNTER_GROUPS
    }
    stall_acc: dict = {}
    sm_ratio = config.num_sms / inner.num_sms
    fdone = StallReason.FUNCTIONAL_DONE._value_
    for sig, entries in stratum_entries.items():
        pop_work = sum(plan.works[i] for i in plan.launch_strata[sig])
        scale = pop_work / max(1, stratum_samp_work[sig])
        # SM-side stalls accumulate per SM per cycle: rescale this
        # stratum from (miniature SMs x measured time) to (full SMs x
        # estimated time), reusing the duration extrapolation above.
        # FUNCTIONAL_DONE is the exception: net of the per-launch host
        # setup (handled exactly below), what remains is CDP dispatch
        # and parents parked at devsync — both proportional to how
        # many parent warps ran, so it scales with work, not time.
        stratum_est, stratum_meas = stratum_cycles[sig]
        stall_scale = sm_ratio * stratum_est / max(1.0, stratum_meas)
        for delta in entries:
            for group, acc in counter_acc.items():
                for i, value in enumerate(delta[group]):
                    acc[i] += scale * value
            for reason, cycles in delta["stalls"].items():
                if reason == fdone:
                    cycles = max(0, cycles - config.host_launch_cycles)
                    factor = scale
                else:
                    factor = stall_scale
                stall_acc[reason] = (
                    stall_acc.get(reason, 0.0) + factor * cycles
                )
    for group, acc in counter_acc.items():
        for field_name, value in zip(_CACHE_FIELDS, acc):
            setattr(getattr(est, group), field_name, int(round(value)))
    # DRAM/NoC traffic is *not* attributable per window: a dirty line
    # written by launch i is written back whenever capacity pressure
    # evicts it, often launches later, so the per-window deltas of a
    # launch subset systematically miss cross-launch eviction traffic.
    # Pool the whole sampled run instead (warm-up launches included —
    # they are full, genuine population members for traffic purposes)
    # and scale by the work the run actually simulated.
    warmup_work = sum(plan.works[i] for i in plan.warmup)
    traffic_ratio = plan.total_work / max(
        1, plan.sampled_work + warmup_work
    )
    for group, names in (("dram", _DRAM_FIELDS), ("noc", _NOC_FIELDS)):
        for name in names:
            value = getattr(getattr(stats_s, group), name)
            setattr(getattr(est, group), name,
                    _scale_int(value, traffic_ratio))
    # Idle-while-pending cycles scale with channel-time, not work.
    time_ratio = (config.num_mem_partitions * est_cycles) / max(
        1.0, inner.num_mem_partitions * stats_s.kernel_cycles
    )
    est.dram.idle_pending_cycles = _scale_int(
        stats_s.dram.idle_pending_cycles, time_ratio
    )
    # Every launch pays its setup stall, dropped ones included.
    stall_acc[fdone] = (
        stall_acc.get(fdone, 0.0)
        + config.host_launch_cycles * len(plan.works)
    )
    for reason, cycles in stall_acc.items():
        est.stalls[reason] = max(0, int(round(cycles)))
    # Writeback slack: dirty lines parked in the caches when the
    # shorter sampled run ends generated no DRAM writes, but the
    # launches the sample dropped might have evicted them (store ->
    # L1 dirty -> L2 -> DRAM drains only under set-conflict pressure).
    return max(0.0, (traffic_ratio - 1.0) * measured.dirty_left)


def _set_intervals(est: EstimatedRunStats, measured: _Measured,
                   est_cycles: float, stat_var: float,
                   writeback_slack: float, margins: dict) -> None:
    """Statistical half-width plus the declared model margin."""
    stats_s = measured.stats
    half = (Z_95 * math.sqrt(stat_var)
            + margins["cycles_rel"] * est_cycles)
    est.intervals["cycles"] = _interval(est_cycles, half, lo_clamp=1.0)
    est.intervals["kernel_cycles"] = est.intervals["cycles"]
    est.intervals["device_time"] = _interval(
        est_cycles + est.launch_overhead_cycles, half, lo_clamp=1.0
    )
    cyc_lo, cyc_hi = est.intervals["cycles"]
    est.intervals["ipc"] = (
        est.instructions / cyc_hi, est.instructions / cyc_lo
    )
    for metric, group, stats in (
        ("l1_miss_rate", "l1", est.l1), ("l2_miss_rate", "l2", est.l2)
    ):
        est.intervals[metric] = _interval(
            stats.miss_rate,
            Z_95 * _rate_se(measured.deltas, group)
            + margins["miss_rate_abs"],
            lo_clamp=0.0, hi_clamp=1.0,
        )
    for metric, value in (
        ("dram_requests", est.dram.requests),
        ("dram_data_cycles", est.dram.data_cycles),
        ("noc_bytes", est.noc.bytes),
        ("noc_messages", est.noc.messages),
    ):
        est.intervals[metric] = _interval(
            value, margins["traffic_rel"] * value, lo_clamp=0.0
        )
    # How much of the writeback slack drains is genuinely unobservable
    # from the sample — in NW it is none, in SW a sizeable slice — so
    # it widens the DRAM intervals upward rather than moving the
    # estimate.
    if writeback_slack > 0:
        per_request_data = stats_s.dram.data_cycles / max(
            1, stats_s.dram.requests
        )
        for metric, per_unit in (
            ("dram_requests", 1.0),
            ("dram_data_cycles", per_request_data),
        ):
            lo, hi = est.intervals[metric]
            est.intervals[metric] = (lo, hi + writeback_slack * per_unit)
    for reason, frac in est.stall_breakdown().items():
        est.intervals[f"stall_{reason}"] = _interval(
            frac, margins["stall_frac_abs"], lo_clamp=0.0, hi_clamp=1.0
        )


def _extrapolate(plan: _Plan, measured: _Measured, config: GPUConfig
                 ) -> EstimatedRunStats:
    """Scale the measurements up to whole-run stats with intervals."""
    estimates = _launch_estimates(plan, measured, config)
    est_cycles, stat_var, stratum_cycles = _stratum_cycles(
        plan, measured, estimates
    )
    cdp = plan.device_launches > 0
    suffix = "_cdp" if cdp else ""
    margins = {
        name: ERROR_BOUNDS[name + suffix]
        for name in ("cycles_rel", "traffic_rel", "miss_rate_abs",
                     "stall_frac_abs")
    }
    stats_s = measured.stats
    launches_total = len(plan.works)

    est = EstimatedRunStats()
    plan.total_counts.merge_into(est)
    # Host-side costs are exact arithmetic over the *original* host
    # program (dropped launches still pay their driver overhead).
    est.kernel_launches = launches_total
    est.memcpy_calls = stats_s.memcpy_calls
    est.pci_cycles = stats_s.pci_cycles
    est.launch_overhead_cycles = (
        config.host_launch_cycles * launches_total
    )
    est.device_launches = plan.device_launches
    est.kernel_cycles = max(1, int(round(est_cycles)))
    est.cycles = est.kernel_cycles
    est.kernel_timeline = stats_s.kernel_timeline
    writeback_slack = _scale_counters(
        est, plan, measured, config, est_cycles, stratum_cycles
    )
    _set_intervals(est, measured, est_cycles, stat_var, writeback_slack,
                   margins)
    inner = plan.inner
    est.sample = {
        "requested_fraction": config.sample_fraction,
        "achieved_work_fraction": plan.sampled_work / plan.total_work,
        "achieved_cta_fraction": plan.sampled_ctas / plan.total_ctas,
        "within_launch_fraction": plan.within_fraction,
        "seed": config.sample_seed,
        "min_per_class": SAMPLE_MIN_PER_CLASS,
        "strata": sum(len(lp.strata) for lp in plan.plans),
        "sampled_ctas": plan.sampled_ctas,
        "total_ctas": plan.total_ctas,
        "launches": launches_total,
        "launches_kept": len(plan.plans),
        "launch_strata": len(plan.launch_strata),
        "probed_launches": len(plan.probed),
        "warmup_depth": plan.warm_depth,
        "warmup_launches": len(plan.warmup),
        "dilution": (
            "resident_limited" if plan.resident_limited
            else "machine_scaled"
        ),
        "machine": {
            "num_sms": inner.num_sms,
            "num_mem_partitions": inner.num_mem_partitions,
            "l2_bytes": inner.l2.size_bytes,
        },
        "exact_fallback": False,
        "cdp": cdp,
        "margins": margins,
        "measured_kernel_cycles": stats_s.kernel_cycles,
    }
    return est


def _exact_fallback(
    cached: CachedApplication, config: GPUConfig
) -> EstimatedRunStats:
    """Every CTA sampled: run exactly, report zero-width intervals."""
    exact_cfg = config.with_(sample_fraction=0.0)
    stats = replay_application(cached, GPUSimulator(exact_cfg))
    total_ctas = sum(
        op.launch.num_ctas for op in cached.ops
        if isinstance(op, HostLaunch)
    )
    est = EstimatedRunStats()
    est.merge(stats)
    est.cycles = stats.cycles
    est.telemetry = stats.telemetry
    exact = {
        "cycles": stats.cycles,
        "kernel_cycles": stats.kernel_cycles,
        "device_time": stats.device_time(),
        "ipc": stats.ipc,
        "l1_miss_rate": stats.l1.miss_rate,
        "l2_miss_rate": stats.l2.miss_rate,
        "dram_requests": stats.dram.requests,
        "dram_data_cycles": stats.dram.data_cycles,
        "noc_bytes": stats.noc.bytes,
        "noc_messages": stats.noc.messages,
    }
    for reason, frac in stats.stall_breakdown().items():
        exact[f"stall_{reason}"] = frac
    est.intervals = {
        metric: (float(value), float(value))
        for metric, value in exact.items()
    }
    est.sample = {
        "requested_fraction": config.sample_fraction,
        "achieved_work_fraction": 1.0,
        "achieved_cta_fraction": 1.0,
        "seed": config.sample_seed,
        "min_per_class": SAMPLE_MIN_PER_CLASS,
        "sampled_ctas": total_ctas,
        "total_ctas": total_ctas,
        "exact_fallback": True,
        "cdp": stats.device_launches > 0,
    }
    return est


# -- validation helpers ----------------------------------------------------

def _ranks(values) -> list[float]:
    """Average ranks (ties share the mean rank)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while (
            j + 1 < len(order)
            and values[order[j + 1]] == values[order[i]]
        ):
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Spearman rank correlation (tie-aware, no scipy dependency)."""
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    n = len(xs)
    if n < 2:
        return 1.0
    rx, ry = _ranks(list(xs)), _ranks(list(ys))
    mean = (n + 1) / 2
    cov = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    vx = sum((a - mean) ** 2 for a in rx)
    vy = sum((b - mean) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 1.0  # a constant ranking cannot be contradicted
    return cov / math.sqrt(vx * vy)
