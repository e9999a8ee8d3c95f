"""Sampled estimation: extrapolate whole-run stats from a CTA sample.

Config-space sweeps (Figs 11-22) mostly need accurate *rankings*
across config points, yet every point pays the full cycle-accurate
cost.  This module trades bounded accuracy for large speedups: it
cycle-accurately simulates a stratified sample of each grid's CTAs on
a proportionally scaled-down machine and extrapolates the whole-run
statistics, attaching a confidence interval to every estimated metric.

How it works
------------
**Sampling units.**  Two levels, both stratified:

- *Host launches.*  Applications that issue many similar grids (NvB
  runs thousands of one-CTA comparisons; PairHMM one grid per read
  group) are sampled at the launch level: launches are stratified by
  signature (kernel name, grid size, warps per CTA, factor-of-two
  work bucket), a subset of each stratum is simulated, and the rest
  are extrapolated from their stratum's measured cycles-per-
  instruction rate.  The host program is synchronous, so dropping a
  launch removes its grid wholesale without perturbing others
  (memcpys are always kept, preserving cache-flush behaviour).
  Wavefront pipelines (SW/NW diagonals) are the exception: launch
  ``i+1`` loads lines launch ``i`` stored, and dropping the producer
  turns warm hits into cold misses.  A cheap write->read line-overlap
  probe on a few adjacent launch pairs detects this; when it fires,
  each kept launch is preceded by its (otherwise dropped) predecessors
  as *warm-up* launches — replayed in full to restore cache state but
  excluded from every measurement — and within-launch CTA sampling is
  disabled (a CTA subset would land on different SMs than the warm-up
  data, defeating the warm-up through the per-SM L1).
- *CTAs within a kept launch* — whole CTAs, never individual warps (a
  CTA's barrier semantics only hold when all of its warps run
  together).  CTAs are stratified by their equivalence class: the
  tuple of per-warp :meth:`~repro.sim.replay.ReplayKernel.class_key`
  values (the trace template's class key where a kernel declares one,
  else the canonical work signature of the materialized trace).

Each stratum at either level contributes at least
``sample_min_per_class`` members, so rare classes are never
extrapolated from zero observations, and classes are weighted by
their true population when summing back up.

**Dilution model.**  Running 10% of a grid's CTAs on the full machine
dilutes every contention effect — cache footprints, DRAM row
locality, NoC bandwidth pressure — and systematically underestimates
memory time.  Two regimes, picked by where the work lives:

- *Multi-wave grids* (more CTAs than the machine holds at once) run
  on a *proportional miniature*: ``num_sms`` and
  ``num_mem_partitions`` are scaled by the within-launch work
  fraction (partitions only to divisors of the original count, so
  address-alignment camping survives) and the L2 scales with the
  partition count, keeping the per-partition slice constant.  Per-SM
  resources are untouched, so per-CTA behaviour is preserved while
  machine-level pressure per CTA approximates the full run.
- *Single-wave grids* contend only with their own co-resident CTAs,
  and no machine shrinking can restore that pressure.  The miniature
  keeps every sampled grid at its original wave count (``sm_floor``),
  and contention is measured instead of modelled: a second *probe*
  run replays roughly half the CTA sample, and the duration
  difference between the two points gives the slope of duration vs
  co-resident work, which extrapolates linearly to the full grid
  (capped by the fully-serialized bound ``D * W/w``).

**Extrapolation.**  Config-independent totals (instructions, op/mem
mix, occupancy) come from the replay layer's pre-counted
``total_counts`` and are *exact*, as are host-side launch overheads.
Per-launch durations combine a work/concurrency bound with the
measured packing factor (plus the probe slope in the single-wave
regime); unsampled launches are extrapolated from their stratum's
work-weighted duration rate.  Cache/DRAM/NoC counters are snapshotted
per host launch (the host is synchronous, so each launch's traffic
has fully retired at its completion), and each launch stratum's
measured counter deltas are scaled to the stratum's population work —
so counter estimates and miss rates are composition-corrected, and
warm-up launches never contaminate them.  Stall cycles scale the same
way, corrected per stratum by estimated-over-measured machine-time.

**Confidence intervals.**  The statistical half-width comes from the
stratified sampling variance of the duration estimator (finite
population corrected); a declared model margin (wider for CDP) is
added on top, because scaling the machine is a model, not an
estimator.  ``tests/sim/test_sampled_accuracy.py`` validates the
declared bounds against the exact core across the whole suite.

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
from repro.sim.replay import CachedApplication, replay_application
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
    regardless of ``--jobs`` / ``--workers`` process topology.
    """
    payload = f"{seed}:{index}:{name}:{num_ctas}".encode()
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big"
    )


def _launch_work(launch: KernelLaunch, owner, memo: dict) -> tuple:
    """``(total, max_cta)`` instructions incl. CDP descendants.

    ``total`` drives work-proportional scaling (traffic, multi-wave
    durations); ``max_cta`` is the critical-path basis for single-wave
    launches, whose duration tracks their longest CTA.  The replay
    layer profiles every launch at materialization time
    (``CachedApplication.launch_profiles``); the walk below is only a
    fallback for owners built before that cache existed.
    """
    kernel = launch.kernel
    key = (id(kernel), launch.num_ctas, owner.args_token(launch.args))
    profiles = getattr(owner, "launch_profiles", None)
    if profiles is not None:
        profile = profiles.get(key)
        if profile is not None:
            return (profile[1], profile[2])
    cached = memo.get(key)
    if cached is not None:
        return cached
    total = 0
    max_cta = 0
    for cta_id in range(launch.num_ctas):
        cta_total = 0
        for warp_id in range(kernel.warps_per_cta):
            ctx = WarpContext(
                cta_id=cta_id,
                warp_id=warp_id,
                warps_per_cta=kernel.warps_per_cta,
                num_ctas=launch.num_ctas,
                args=launch.args,
            )
            instrs, counts = kernel.entry_for(ctx)
            cta_total += counts.instructions
            if counts.op_mix.get("launch"):
                for instr in instrs:
                    if instr.op is OpClass.LAUNCH:
                        cta_total += _launch_work(
                            instr.child, owner, memo
                        )[0]
        total += cta_total
        max_cta = max(max_cta, cta_total)
    memo[key] = (total, max_cta)
    return (total, max_cta)


class _LaunchPlan:
    """One host launch's strata, sample, and measured durations."""

    def __init__(self, index: int, launch: KernelLaunch, owner,
                 fraction: float, min_per_class: int, seed: int,
                 work_memo: dict):
        kernel = launch.kernel
        self.index = index
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
                            work += _launch_work(
                                instr.child, owner, work_memo
                            )[0]
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
                max(min_per_class, math.ceil(fraction * len(members))),
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
        #: measured durations per stratum, filled by the CTA observer
        self.durations: list[list[float]] = [[] for _ in self.strata]
        #: ``(probe_work, probe_duration)`` once the contention probe
        #: has measured this launch at a second sample size
        self.probe: tuple[float, float] | None = None
        #: duration of the same sampled set on the SM-boosted inner
        #: machine (memory system unchanged) — separates per-SM
        #: crowding from memory pressure in the contention model
        self.d_boost: float = 0.0

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
        candidates read curvature from the secant between two loaded
        points, and a solo CTA carries no queueing signal — and its
        class mix must mirror the sample's, or the secant tilts
        toward whichever classes were kept.
        """
        chosen2: list[int] = []
        for chosen in self.sampled:
            chosen2.extend(chosen[: max(1, len(chosen) // 2)])
        return sorted(chosen2)

    def estimate_duration(
        self, measured: float, conc_sampled: int, conc_full: int
    ) -> tuple[float, float]:
        """(estimated full duration, statistical sd) for this launch.

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
        for durations in self.durations:
            mean = sum(durations) / len(durations)
            if len(durations) >= 2 and mean > 0:
                var = sum((d - mean) ** 2 for d in durations) / (
                    len(durations) - 1
                )
                cvs.append(math.sqrt(var) / mean)
        pooled_cv = sum(cvs) / len(cvs) if cvs else _SINGLETON_CV
        for members, chosen, durations in zip(
            self.strata, self.sampled, self.durations
        ):
            big_n, small_n = len(members), len(chosen)
            subtotal = sum(durations)
            t_sampled += subtotal
            t_hat += (big_n / small_n) * subtotal
            max_duration = max(max_duration, max(durations))
            if big_n == small_n:
                continue  # fully observed stratum: no sampling error
            mean = subtotal / small_n
            if small_n >= 2:
                var = sum((d - mean) ** 2 for d in durations) / (
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
    grid-strided in most kernels), so each slot maps back to its
    original ``cta_id`` and the trace is served at the original
    ``num_ctas`` — the miniature machine runs bit-identical per-CTA
    instruction streams, just fewer of them.
    """

    counts_inline = False  # totals come from the replay layer

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

    def warp_trace(self, ctx: WarpContext):
        orig = WarpContext(
            cta_id=self.slot_to_orig[ctx.cta_id],
            warp_id=ctx.warp_id,
            warps_per_cta=ctx.warps_per_cta,
            num_ctas=self.orig_num_ctas,
            args=ctx.args,
        )
        return self.base.warp_trace(orig)


class _SampledApplication(Application):
    """The cached application with each host grid shrunk to its sample."""

    def __init__(self, cached: CachedApplication, ops: list):
        self.name = cached.name
        self.may_device_launch = cached.may_device_launch
        self.ops = ops

    def host_program(self):
        yield from self.ops

    def describe(self) -> str:
        return f"sampled:{self.name}"


# -- inter-launch locality -------------------------------------------------

#: Minimum write->read line-overlap fraction that counts as a
#: producer->consumer dependency between adjacent host launches.
_LOCALITY_THRESHOLD = 0.05

#: How many adjacent launch pairs the locality probe inspects.
_LOCALITY_PROBES = 3

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


def _warmup_depth(
    launches: list[KernelLaunch],
    sigs: list[tuple] | None = None,
) -> int:
    """How many predecessors feed a launch's loads (0, 1 or 2).

    Probes a few adjacent launch pairs spread across the program: if a
    consumer launch loads a meaningful fraction of the lines a
    predecessor stored (wavefront pipelines: SW/NW diagonals), dropped
    predecessors must be replayed as warm-up or the sample's cache
    rates go cold.  Read-read sharing deliberately does *not* trigger
    warm-up — only true dependencies do, so independent-launch
    applications (NvB comparisons) keep their full launch-sampling
    speedup.

    When launch-stratum ``sigs`` are given, probe windows whose
    signature pattern was already inspected are skipped: a program of
    structurally identical launches (PairHMM's batch loop) answers the
    question once instead of three times, and the trace walk is the
    detector's whole cost on large grids.
    """
    n = len(launches)
    if n < 2:
        return 0
    probes = sorted(
        {j for j in (n // 4, n // 2, (3 * n) // 4) if 1 <= j < n}
    )[:_LOCALITY_PROBES]
    if not probes:
        probes = [n - 1]
    depth = 0
    seen_windows: set[tuple] = set()
    for j in probes:
        if depth >= 2:
            break
        if sigs is not None:
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
_COUNTER_GROUPS = ("l1", "const_cache", "l2", "dram", "noc")


def _counter_snapshot(sim: GPUSimulator) -> dict:
    """Cumulative memory-system counters, read mid-run.

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
        "dram": [sum(getattr(ch.stats, f) for ch in sim.memory.dram)
                 for f in _DRAM_FIELDS],
        "noc": [getattr(sim.memory.network.stats, f)
                for f in _NOC_FIELDS],
        "stalls": dict(sim.stats.stalls),
    }


def _zero_snapshot() -> dict:
    return {
        "l1": [0] * len(_CACHE_FIELDS),
        "const_cache": [0] * len(_CACHE_FIELDS),
        "l2": [0] * len(_CACHE_FIELDS),
        "dram": [0] * len(_DRAM_FIELDS),
        "noc": [0] * len(_NOC_FIELDS),
        "stalls": {},
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
        parallel_shards=1,
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


def _count_device_launches(cached: CachedApplication) -> int:
    """Exact CDP launch count from the materialized plan."""
    if not cached.may_device_launch:
        return 0  # skip the per-warp walk: nothing can launch
    profiles = getattr(cached, "launch_profiles", None)
    if profiles is not None:
        return sum(
            profiles[cached.launch_key(op.launch)][3]
            for op in cached.ops
            if isinstance(op, HostLaunch)
        )
    total = 0
    pending = [
        op.launch for op in cached.ops if isinstance(op, HostLaunch)
    ]
    while pending:
        launch = pending.pop()
        kernel = launch.kernel
        for cta_id in range(launch.num_ctas):
            for warp_id in range(kernel.warps_per_cta):
                ctx = WarpContext(
                    cta_id=cta_id,
                    warp_id=warp_id,
                    warps_per_cta=kernel.warps_per_cta,
                    num_ctas=launch.num_ctas,
                    args=launch.args,
                )
                instrs, counts = kernel.entry_for(ctx)
                if counts.op_mix.get("launch"):
                    for instr in instrs:
                        if instr.op is OpClass.LAUNCH:
                            total += 1
                            pending.append(instr.child)
    return total


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

    work_memo: dict = {}
    cps_memo: dict = {}
    launches = [
        op.launch for op in cached.ops if isinstance(op, HostLaunch)
    ]
    work_pairs = [_launch_work(ln, cached, work_memo) for ln in launches]
    works = [pair[0] for pair in work_pairs]
    max_cta_works = [pair[1] for pair in work_pairs]
    launches_total = len(launches)
    total_work = sum(works)
    total_ctas = sum(ln.num_ctas for ln in launches)
    device_launches = _count_device_launches(cached)
    cdp = device_launches > 0

    # -- launch-level sample ----------------------------------------
    # Group by shape, then split each group where works differ by more
    # than 2x from the cluster's first (smallest) member — clustering
    # relative to the group avoids splitting near-identical launches
    # across an absolute log2 boundary.
    shape_groups: dict[tuple, list[int]] = {}
    for i, ln in enumerate(launches):
        shape = (ln.kernel.name, ln.num_ctas, ln.kernel.warps_per_cta)
        shape_groups.setdefault(shape, []).append(i)
    launch_strata: dict[tuple, list[int]] = {}
    launch_sig: dict[int, tuple] = {}
    for shape, members in shape_groups.items():
        members = sorted(members, key=lambda i: (works[i], i))
        cluster_floor = None
        bucket = -1
        for i in members:
            if cluster_floor is None or works[i] > 2 * cluster_floor:
                cluster_floor = works[i]
                bucket += 1
            sig = shape + (bucket,)
            launch_strata.setdefault(sig, []).append(i)
            launch_sig[i] = sig
    launch_rng = random.Random(
        _derived_seed(config.sample_seed, -1, cached.name, launches_total)
    )
    launch_cap = config.sample_max_launches_per_class or launches_total
    kept: set[int] = set()
    for members in launch_strata.values():
        n = min(
            len(members),
            launch_cap,
            max(
                config.sample_min_per_class,
                math.ceil(fraction * len(members)),
            ),
        )
        n = max(n, min(len(members), config.sample_min_per_class))
        kept.update(launch_rng.sample(members, n))

    # -- inter-launch locality: warm-up predecessors ----------------
    # When a dropped launch produced lines a kept launch loads, the
    # kept launch would run cold and its measured cache rates and
    # duration would not represent the exact run.  Replay the missing
    # predecessors as warm-up (full grids, excluded from measurement)
    # and keep whole launches — a CTA subset lands on different SMs
    # than the warm-up data and would defeat it through the per-SM L1.
    warm_depth = 0
    if len(kept) < launches_total:
        # Depth depends only on the application's launch sequence, so
        # it memoizes on the owner exactly like materialized traces do
        # — sweeps re-estimate the same application across many
        # configs and pay the trace walk once.
        warm_depth = getattr(cached, "_sampled_warmup_depth", None)
        if warm_depth is None:
            warm_depth = _warmup_depth(
                launches, [launch_sig[i] for i in range(launches_total)]
            )
            cached._sampled_warmup_depth = warm_depth
    warmup: set[int] = set()
    if warm_depth:
        for i in kept:
            for j in range(max(0, i - warm_depth), i):
                if j not in kept:
                    warmup.add(j)
        if len(kept) + len(warmup) >= launches_total:
            # Warm-up would replay everything anyway: run exactly.
            return _exact_fallback(cached, config, fraction, total_ctas)
    within_target = 1.0 if warm_depth else fraction

    # -- CTA-level sample within kept launches ----------------------
    plans: list[_LaunchPlan] = []
    ops: list = []
    #: per emitted host launch, in program order: measured or warm-up
    span_kinds: list[str] = []
    launch_index = 0
    for op in cached.ops:
        if not isinstance(op, HostLaunch):
            ops.append(op)
            continue
        index = launch_index
        launch_index += 1
        if index in warmup:
            ops.append(op)  # the original full grid, unmeasured
            span_kinds.append("warmup")
            continue
        if index not in kept:
            continue  # extrapolated from its launch stratum
        plan = _LaunchPlan(
            index, op.launch, cached, within_target,
            config.sample_min_per_class, config.sample_seed, work_memo,
        )
        plan.sig = launch_sig[index]
        plans.append(plan)
        span_kinds.append("kept")
        skernel = _SampledKernel(
            op.launch.kernel, plan.slot_to_orig, op.launch.num_ctas
        )
        plan.kernel_id = id(skernel)
        ops.append(HostLaunch(KernelLaunch(
            skernel, plan.n_sampled, args=op.launch.args
        )))

    sampled_ctas = sum(plan.n_sampled for plan in plans)
    kept_work = sum(plan.total_work for plan in plans)
    sampled_work = sum(plan.sampled_work for plan in plans)

    if total_work == 0 or (
        len(kept) >= launches_total and sampled_ctas >= total_ctas
    ):
        # Nothing was left out: run the exact core on the unscaled
        # machine (bit-identical to a plain replay) and report
        # zero-width intervals.
        return _exact_fallback(cached, config, fraction, total_ctas)

    work_fraction = sampled_work / total_work
    # The host is synchronous — contention happens among one launch's
    # co-resident CTAs — so the dilution machine is driven by the
    # *within-launch* fraction, not the launch-sampling fraction.
    within_fraction = sampled_work / max(1, kept_work)

    # Pick the dilution model by where the work lives: grids that fit
    # on the machine in one wave (resident-limited) contend with their
    # own CTAs — run them unscaled and measure contention with the
    # probe; multi-wave grids keep machine-level pressure under the
    # proportional miniature.
    single_wave_work = 0
    # Extrapolation basis per launch: a single-wave launch's duration
    # tracks its longest CTA (critical path), a multi-wave launch's
    # its total work (throughput).
    basis: list[int] = []
    for i, (ln, work) in enumerate(zip(launches, works)):
        occ_key = (
            ln.kernel.cta_threads,
            ln.kernel.regs_per_thread,
            ln.kernel.smem_per_cta,
        )
        cps = cps_memo.get(occ_key)
        if cps is None:
            cps = ctas_per_sm(config, ln.kernel)
            cps_memo[occ_key] = cps
        if ln.num_ctas <= config.num_sms * cps:
            single_wave_work += work
            basis.append(max(1, max_cta_works[i]))
        else:
            basis.append(max(1, work))
    resident_limited = single_wave_work * 2 > total_work
    sm_floor = 1
    for plan in plans:
        kernel = plan.launch.kernel
        plan.cps = cps_memo[(
            kernel.cta_threads, kernel.regs_per_thread,
            kernel.smem_per_cta,
        )]
        sm_floor = max(sm_floor, math.ceil(plan.n_sampled / plan.cps))
    inner = _scaled_machine(config, within_fraction, sm_floor)

    simulator = GPUSimulator(inner)
    by_kernel = {plan.kernel_id: plan for plan in plans}

    def observe(cta, t):
        plan = by_kernel.get(id(cta.grid.kernel))
        if plan is None:
            return  # a CDP child grid: folded into its parent's time
        plan.durations[plan.slot_stratum[cta.cta_id]].append(
            t - cta.start_time
        )

    simulator.cta_observer = observe

    # Snapshot the memory system at every host-launch boundary: the
    # host is synchronous, so each launch's traffic has fully retired
    # when the observer fires, and consecutive-snapshot deltas
    # attribute every counter to the launch that caused it.  Warm-up
    # launches get their own deltas, which are then *discarded* —
    # that is the whole point of excluding them from measurement.
    snapshots: list[dict] = [_zero_snapshot()]
    deltas: list[dict] = []

    def on_launch(_launch, _grid):
        snap = _counter_snapshot(simulator)
        deltas.append(_snapshot_delta(snapshots[-1], snap))
        snapshots[-1] = snap

    simulator.launch_observer = on_launch
    stats_s = simulator.run_application(_SampledApplication(cached, ops))

    # Pair measured host-grid durations with plans: the host program is
    # synchronous, so host-origin timeline entries complete in launch
    # order; warm-up spans are skipped by kind.
    host_spans = [
        entry["end"] - entry["start"]
        for entry in stats_s.kernel_timeline
        if entry["origin"] == "host"
    ]
    if not (len(host_spans) == len(deltas) == len(span_kinds)):
        raise RuntimeError(  # pragma: no cover - invariant
            f"sampled run recorded {len(host_spans)} host grids and "
            f"{len(deltas)} counter deltas for {len(span_kinds)} launches"
        )
    kept_deltas = [
        delta for delta, kind in zip(deltas, span_kinds)
        if kind == "kept"
    ]
    for plan, span in zip(plans, (
        span for span, kind in zip(host_spans, span_kinds)
        if kind == "kept"
    )):
        plan.d1 = max(float(span), 1.0)

    # -- contention probe (single-wave regime only) -----------------
    # A partial sample on the full machine misses the queueing
    # pressure of the CTAs it left out.  Replaying ~half the sample
    # gives a second (work, duration) point; the slope of duration vs
    # co-resident work extrapolates to the full grid.  Launches in the
    # same stratum share structure, so one probe per stratum suffices
    # and its slope is shared.
    probe_plans: list[tuple[_LaunchPlan, list[int]]] = []
    if resident_limited:
        probe_ops: list = []
        probe_index = 0
        plan_of = {plan.index: plan for plan in plans}
        probed_sigs: set[tuple] = set()
        for op in cached.ops:
            if not isinstance(op, HostLaunch):
                probe_ops.append(op)
                continue
            plan = plan_of.get(probe_index)
            probe_index += 1
            if (
                plan is None
                or plan.n_sampled >= plan.num_ctas
                or plan.sig in probed_sigs
            ):
                continue
            subset = plan.probe_subset()
            if subset == plan.slot_to_orig:
                continue  # singleton strata: no smaller point exists
            pkernel = _SampledKernel(
                op.launch.kernel, subset, op.launch.num_ctas
            )
            probe_ops.append(HostLaunch(KernelLaunch(
                pkernel, len(subset), args=op.launch.args
            )))
            probe_plans.append((plan, subset))
            probed_sigs.add(plan.sig)
        if probe_plans:
            prober = GPUSimulator(inner)
            stats_p = prober.run_application(
                _SampledApplication(cached, probe_ops)
            )
            probe_spans = [
                entry["end"] - entry["start"]
                for entry in stats_p.kernel_timeline
                if entry["origin"] == "host"
            ]
            if len(probe_spans) != len(probe_plans):  # pragma: no cover
                raise RuntimeError(
                    "probe run recorded "
                    f"{len(probe_spans)} host grids for "
                    f"{len(probe_plans)} probed launches"
                )
            for (plan, subset), span in zip(probe_plans, probe_spans):
                plan.probe = (float(plan.work_of(subset)),
                              max(float(span), 1.0))
        # Second probe axis: the same sampled set on an inner machine
        # with twice the SMs but the *identical* memory system.  Only
        # per-SM crowding changes between this run and the measurement
        # run, so the duration ratio isolates the compute/serialization
        # exponent; whatever growth the half-sample probe saw beyond it
        # is memory-side.  The split only changes the outcome when the
        # miniature is *more* crowded per SM than the full machine
        # (rounding floors on small-SM sweeps) — extrapolating an
        # inflated d1 upward by total work is the failure mode it
        # prevents — so the extra replay is gated on that overload.
        # The 10% tolerance keeps the rounding jitter of a
        # proportionally scaled miniature (e.g. 19 SMs for a 0.247
        # work fraction of 78) from buying a probe run that cannot
        # move the estimate; the pathological floored-at-one-SM cases
        # sit at 25%+ overload.
        sm_boost = min(config.num_sms, 2 * inner.num_sms)
        overloaded = any(
            plan.sampled_work * config.num_sms
            > 1.1 * plan.total_work * inner.num_sms
            for plan, _subset in probe_plans
        )
        if probe_plans and overloaded and sm_boost > inner.num_sms:
            booster = GPUSimulator(inner.with_(num_sms=sm_boost))
            stats_b = booster.run_application(
                _SampledApplication(cached, ops)
            )
            boost_spans = [
                entry["end"] - entry["start"]
                for entry in stats_b.kernel_timeline
                if entry["origin"] == "host"
            ]
            for plan, span in zip(plans, (
                span for span, kind in zip(boost_spans, span_kinds)
                if kind == "kept"
            )):
                plan.d_boost = max(float(span), 1.0)

    # Per-stratum contention model from the two probe points: a
    # linear rate in co-resident work, a power-law exponent, and a
    # hyperbolic capacity ``D(w) = A / (1 - w/C)`` (M/M/1-style:
    # queueing delay is convex in offered load, so the secant slope
    # between two low-load points underestimates growth — the
    # hyperbola recovers it).  The largest extrapolation wins, capped
    # by the serialized bound.
    #
    # The half-sample probe varies per-SM crowding and memory pressure
    # *together* (same machine, fewer CTAs), so its exponent ``e_a``
    # conflates the two.  In the full run they scale differently: the
    # grid spreads over ``config.num_sms`` SMs (crowding ratio
    # ``total/sampled * inner/config`` SMs) while the memory system
    # sees the full total (ratio ``total/sampled``).  The SM-boost
    # probe isolates the crowding exponent ``e_c``; attributing that
    # share of ``e_a`` to per-SM load shrinks the extrapolation target
    # to ``total_work * (inner/config SMs)^(e_c/e_a)`` — the work an
    # equally-loaded miniature SM would host.  A compute-serialized
    # kernel (``e_c == e_a``) extrapolates purely per-SM; a
    # memory-bound one (``e_c == 0``) purely by total work.
    slopes: dict[tuple, tuple[float, float, float, float]] = {}
    sm_shrink = inner.num_sms / config.num_sms
    for plan, _subset in probe_plans:
        w1, d1 = float(plan.sampled_work), plan.d1
        w2, d2 = plan.probe
        if w1 > w2 and d1 > d2:
            ratio = d1 / d2
            e_a = math.log(ratio) / math.log(w1 / w2)
            shrink = 1.0
            if plan.d_boost and plan.d_boost < d1 and sm_shrink < 1.0:
                e_c = min(e_a, (
                    math.log(d1 / plan.d_boost)
                    / math.log(sm_boost / inner.num_sms)
                ))
                if e_a > 1e-9:
                    shrink = sm_shrink ** (e_c / e_a)
            slopes[plan.sig] = (
                (d1 - d2) / (w1 - w2),
                e_a,
                (ratio - 1.0) / (ratio * w1 - w2),  # 1/C
                shrink,
            )

    # -- per-launch estimates, then launch-level extrapolation ------
    for plan in plans:
        conc_full = min(plan.num_ctas, config.num_sms * plan.cps)
        conc_sampled = min(plan.n_sampled, inner.num_sms * plan.cps)
        d1 = plan.d1
        estimate, sd = plan.estimate_duration(
            d1, conc_sampled, conc_full
        )
        slope = slopes.get(plan.sig)
        if slope is not None and plan.n_sampled < plan.num_ctas:
            per_work, exponent, inv_cap, shrink = slope
            w1 = float(plan.sampled_work)
            # ``shrink`` folds the crowding/memory decomposition into
            # the target load (see the slope derivation above): a
            # miniature that is *more* loaded per SM than the real
            # machine extrapolates downward from its inflated d1
            # instead of serializing upward.
            full_w = float(plan.total_work) * shrink
            serial = d1 * full_w / w1
            linear = d1 + per_work * (full_w - w1)
            power = d1 * (full_w / w1) ** exponent
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
            estimate = min(max(linear, power, hyper, estimate), serial)
            # The extrapolated contention term is a model, not an
            # estimator — carry a spread on it.
            sd = math.hypot(sd, 0.25 * abs(estimate - d1))
        plan.cycles_estimate = estimate
        plan.cycles_sd = sd

    est_cycles = 0.0
    stat_var = 0.0
    plan_of = {plan.index: plan for plan in plans}
    #: sig -> (estimated stratum cycles incl. extrapolated launches,
    #:         measured cycles of the kept members) — the stall and
    #: counter scalers below reuse the duration extrapolation.
    stratum_cycles: dict[tuple, tuple[float, float]] = {}
    for sig, members in launch_strata.items():
        kept_members = [
            plan_of[i] for i in members if i in plan_of
        ]
        unseen_work = sum(
            basis[i] for i in members if i not in plan_of
        )
        stratum_est = sum(p.cycles_estimate for p in kept_members)
        stat_var += sum(p.cycles_sd ** 2 for p in kept_members)
        if unseen_work:
            stratum_work = sum(basis[p.index] for p in kept_members) or 1
            rate = (
                sum(p.cycles_estimate for p in kept_members)
                / stratum_work
            )
            stratum_est += unseen_work * rate
            rates = [
                p.cycles_estimate / basis[p.index] for p in kept_members
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
            stat_var += (unseen_work * sd_r) ** 2 / len(kept_members)
        est_cycles += stratum_est
        stratum_cycles[sig] = (
            stratum_est, sum(p.d1 for p in kept_members)
        )

    bounds = ERROR_BOUNDS
    cyc_margin = bounds["cycles_rel_cdp" if cdp else "cycles_rel"]
    traffic_margin = bounds["traffic_rel_cdp" if cdp else "traffic_rel"]
    miss_margin = bounds["miss_rate_abs_cdp" if cdp else "miss_rate_abs"]
    stall_margin = bounds[
        "stall_frac_abs_cdp" if cdp else "stall_frac_abs"
    ]

    est = EstimatedRunStats()
    cached.total_counts.merge_into(est)
    # Host-side costs are exact arithmetic over the *original* host
    # program (dropped launches still pay their driver overhead).
    est.kernel_launches = launches_total
    est.memcpy_calls = stats_s.memcpy_calls
    est.pci_cycles = stats_s.pci_cycles
    est.launch_overhead_cycles = (
        config.host_launch_cycles * launches_total
    )
    est.device_launches = device_launches
    est.kernel_cycles = max(1, int(round(est_cycles)))
    est.cycles = est.kernel_cycles
    est.kernel_timeline = stats_s.kernel_timeline

    # Per-stratum scaling of the measured per-launch counter deltas:
    # each launch stratum's sampled traffic is blown up to its
    # population work, so launch-composition bias cancels and warm-up
    # launches (absent from ``kept_deltas``) never contaminate the
    # estimate.  Miss rates then fall out of the scaled numerators and
    # denominators instead of transferring raw pooled rates.
    stratum_entries: dict[tuple, list[dict]] = {}
    stratum_samp_work: dict[tuple, int] = {}
    for plan, delta in zip(plans, kept_deltas):
        stratum_entries.setdefault(plan.sig, []).append(delta)
        stratum_samp_work[plan.sig] = (
            stratum_samp_work.get(plan.sig, 0) + plan.sampled_work
        )
    counter_acc = {
        "l1": [0.0] * len(_CACHE_FIELDS),
        "const_cache": [0.0] * len(_CACHE_FIELDS),
        "l2": [0.0] * len(_CACHE_FIELDS),
    }
    stall_acc: dict = {}
    sm_ratio = config.num_sms / inner.num_sms
    fdone = StallReason.FUNCTIONAL_DONE._value_
    for sig, entries in stratum_entries.items():
        pop_work = sum(works[i] for i in launch_strata[sig])
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
    for group, dst in (
        ("l1", est.l1), ("const_cache", est.const_cache), ("l2", est.l2)
    ):
        for field_name, value in zip(_CACHE_FIELDS, counter_acc[group]):
            setattr(dst, field_name, int(round(value)))
    # DRAM/NoC traffic is *not* attributable per window: a dirty line
    # written by launch i is written back whenever capacity pressure
    # evicts it, often launches later, so the per-window deltas of a
    # launch subset systematically miss cross-launch eviction traffic.
    # Pool the whole sampled run instead (warm-up launches included —
    # they are full, genuine population members for traffic purposes)
    # and scale by the work the run actually simulated.
    warmup_work = sum(works[i] for i in warmup)
    traffic_ratio = total_work / max(1, sampled_work + warmup_work)
    for field_name in _DRAM_FIELDS:
        setattr(est.dram, field_name,
                _scale_int(getattr(stats_s.dram, field_name),
                           traffic_ratio))
    for field_name in _NOC_FIELDS:
        setattr(est.noc, field_name,
                _scale_int(getattr(stats_s.noc, field_name),
                           traffic_ratio))
    # Writeback slack: dirty lines parked in the caches when the
    # shorter sampled run ends generated no DRAM writes, but the
    # launches the sample dropped might have evicted them (store ->
    # L1 dirty -> L2 -> DRAM drains only under set-conflict pressure).
    # How much of that population drains is genuinely unobservable
    # from the sample — in NW it is none, in SW a sizeable slice — so
    # it widens the DRAM intervals upward rather than moving the
    # estimate (see the interval construction below).
    dirty_left = sum(
        bank.dirty_resident() for bank in simulator.memory.l2_banks
    ) + sum(sm.l1.dirty_resident() for sm in simulator.sms)
    writeback_slack = max(0.0, (traffic_ratio - 1.0) * dirty_left)
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
        + config.host_launch_cycles * launches_total
    )
    for reason, cycles in stall_acc.items():
        est.stalls[reason] = max(0, int(round(cycles)))

    # Intervals: statistical half-width plus the declared model margin.
    half = Z_95 * math.sqrt(stat_var) + cyc_margin * est_cycles
    est.intervals["cycles"] = _interval(est_cycles, half, lo_clamp=1.0)
    est.intervals["kernel_cycles"] = est.intervals["cycles"]
    est.intervals["device_time"] = _interval(
        est_cycles + est.launch_overhead_cycles, half, lo_clamp=1.0
    )
    cyc_lo, cyc_hi = est.intervals["cycles"]
    est.intervals["ipc"] = (
        est.instructions / cyc_hi, est.instructions / cyc_lo
    )
    est.intervals["l1_miss_rate"] = _interval(
        est.l1.miss_rate,
        Z_95 * _rate_se(kept_deltas, "l1") + miss_margin,
        lo_clamp=0.0, hi_clamp=1.0,
    )
    est.intervals["l2_miss_rate"] = _interval(
        est.l2.miss_rate,
        Z_95 * _rate_se(kept_deltas, "l2") + miss_margin,
        lo_clamp=0.0, hi_clamp=1.0,
    )
    for metric, value in (
        ("dram_requests", est.dram.requests),
        ("dram_data_cycles", est.dram.data_cycles),
        ("noc_bytes", est.noc.bytes),
        ("noc_messages", est.noc.messages),
    ):
        est.intervals[metric] = _interval(
            value, traffic_margin * value, lo_clamp=0.0
        )
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
            frac, stall_margin, lo_clamp=0.0, hi_clamp=1.0
        )

    est.sample = {
        "requested_fraction": fraction,
        "achieved_work_fraction": work_fraction,
        "achieved_cta_fraction": sampled_ctas / total_ctas,
        "within_launch_fraction": within_fraction,
        "seed": config.sample_seed,
        "min_per_class": config.sample_min_per_class,
        "strata": sum(len(plan.strata) for plan in plans),
        "sampled_ctas": sampled_ctas,
        "total_ctas": total_ctas,
        "launches": launches_total,
        "launches_kept": len(plans),
        "launch_strata": len(launch_strata),
        "probed_launches": len(probe_plans),
        "warmup_depth": warm_depth,
        "warmup_launches": len(warmup),
        "dilution": (
            "resident_limited" if resident_limited else "machine_scaled"
        ),
        "machine": {
            "num_sms": inner.num_sms,
            "num_mem_partitions": inner.num_mem_partitions,
            "l2_bytes": inner.l2.size_bytes,
        },
        "exact_fallback": False,
        "cdp": cdp,
        "margins": {
            "cycles_rel": cyc_margin,
            "traffic_rel": traffic_margin,
            "miss_rate_abs": miss_margin,
            "stall_frac_abs": stall_margin,
        },
        "measured_kernel_cycles": stats_s.kernel_cycles,
    }
    return est


def _exact_fallback(
    cached: CachedApplication,
    config: GPUConfig,
    fraction: float,
    total_ctas: int,
) -> EstimatedRunStats:
    """Every CTA sampled: run exactly, report zero-width intervals."""
    exact_cfg = config.with_(sample_fraction=0.0)
    stats = replay_application(cached, GPUSimulator(exact_cfg))
    est = EstimatedRunStats()
    est.merge(stats)
    est.cycles = stats.cycles
    est.telemetry = stats.telemetry
    est.intervals = {
        "cycles": (float(stats.cycles), float(stats.cycles)),
        "kernel_cycles": (
            float(stats.kernel_cycles), float(stats.kernel_cycles)
        ),
        "device_time": (
            float(stats.device_time()), float(stats.device_time())
        ),
        "ipc": (stats.ipc, stats.ipc),
        "l1_miss_rate": (stats.l1.miss_rate, stats.l1.miss_rate),
        "l2_miss_rate": (stats.l2.miss_rate, stats.l2.miss_rate),
        "dram_requests": (
            float(stats.dram.requests), float(stats.dram.requests)
        ),
        "dram_data_cycles": (
            float(stats.dram.data_cycles), float(stats.dram.data_cycles)
        ),
        "noc_bytes": (float(stats.noc.bytes), float(stats.noc.bytes)),
        "noc_messages": (
            float(stats.noc.messages), float(stats.noc.messages)
        ),
    }
    for reason, frac in stats.stall_breakdown().items():
        est.intervals[f"stall_{reason}"] = (frac, frac)
    est.sample = {
        "requested_fraction": fraction,
        "achieved_work_fraction": 1.0,
        "achieved_cta_fraction": 1.0,
        "seed": config.sample_seed,
        "min_per_class": config.sample_min_per_class,
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


def ranking_inversions(exact_order, estimated_order) -> int:
    """Pairs ordered differently by the two rankings (Kendall distance)."""
    position = {label: i for i, label in enumerate(estimated_order)}
    seq = [position[label] for label in exact_order]
    inversions = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
    return inversions
