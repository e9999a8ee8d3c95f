"""The closed-loop workloads: ``cli-run``, ``sweep-mem`` and ``est-suite``.

Each workload is one caller issuing its next operation when the
previous one returns.  Inputs come only from the run's ``--seed``:
datasets through ``dataset_for(..., seed=...)`` handed to the program
with ``workload=``, and the estimator's ``sample_seed``.  The op list
is fixed per workload, so runs with different seeds do the same kind
and amount of work on different data.

Every op's ``RunStats`` is checked against an oracle after the timed
phase (see each workload's ``verify``): the sequential event core
replaying the same generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

import repro.core.sweep as sweep
import repro.data.datasets as datasets
import repro.sim.sampled as sampled
from repro.core.config_presets import (
    CACHE_SWEEP,
    MEM_CONTROLLERS,
    NOC_BANDWIDTH_SWEEP,
    NOC_LATENCY_SWEEP,
    TOPOLOGIES,
    with_cache_sizes,
    with_controller,
    with_topology,
)
from repro.core.runner import run_benchmark, variant_name
from repro.data.datasets import DatasetSize
from repro.kernels import benchmark_names, build_application
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator
from repro.sim.replay import CachedApplication, replay_application

SMALL, MEDIUM = DatasetSize.SMALL, DatasetSize.MEDIUM

#: The estimator's documented operating point.
SAMPLE_FRACTION = 0.1


def variants() -> list[tuple[str, bool]]:
    """The suite's 20 variants: each benchmark with and without CDP."""
    return [(abbr, cdp) for abbr in benchmark_names() for cdp in (False, True)]


def derive_seed(seed: int, *parts) -> int:
    """A stable per-input seed (``hash()`` of a str differs per process)."""
    text = ":".join(str(part) for part in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def digest(payload: dict) -> str:
    """Content digest of a ``RunStats.to_dict()`` payload."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def input_digest(*inputs) -> str:
    """Digest of generated inputs (datasets are frozen dataclasses)."""
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def fresh_process_state() -> None:
    """Forget NvB's functional-result memo, as a new process would.

    ``repro run NvB`` pays the FM-index build and read mapping in every
    invocation; without this, every op after the first in one
    benchmark process would skip it.
    """
    from repro.kernels import nvb_kernel

    getattr(nvb_kernel, "_FUNCTIONAL_CACHE", {}).clear()


#: ``calibration_ms()`` on the host the bounds were measured on, when
#: quiet; host-adjusted times read as milliseconds on that host.
CALIBRATION_REF_MS = 5.0


def calibration_ms() -> float:
    """Thread CPU time of a fixed pure-Python loop, in milliseconds.

    The host this benchmark runs on shares its cores: for seconds at a
    time every instruction runs 10-50% slower, which is charged as CPU
    time, not as steal.  Timed between ops, this loop measures how fast
    the host is running right then, so a run's times can be scaled to
    a steady host speed (see ``host_scale``).  Thread CPU time keeps
    waits for the GIL and for other threads out of the calibration.
    """
    start = time.thread_time()
    table: dict = {}
    total = 0
    for i in range(40_000):
        key = i & 127
        table[key] = table.get(key, 0) + i
        total += (i * 7) % 13
    return (time.thread_time() - start) * 1e3


def host_scale(*calibrations: float) -> float:
    """Factor turning a wall time taken between ``calibrations`` into
    reference-host time."""
    return CALIBRATION_REF_MS * len(calibrations) / sum(calibrations)


def op_key(abbr: str, cdp: bool, size: DatasetSize) -> str:
    return f"{variant_name(abbr, cdp)}@{size.value}"


@dataclass
class Op:
    key: str
    run: object  # () -> RunStats


@dataclass
class Run:
    key: str
    seconds: float  # wall clock
    adjusted: float  # wall clock scaled to the reference host speed
    digest: str | None  # None when the op raised
    stats: object


@dataclass
class Record:
    """What one closed-loop phase observed, op by op."""

    runs: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)

    def times(self, adjusted: bool = True) -> dict:
        out: dict = {}
        for run in self.runs:
            if run.stats is not None:
                out.setdefault(run.key, []).append(
                    run.adjusted if adjusted else run.seconds)
        return out

    def first(self) -> dict:
        out: dict = {}
        for run in self.runs:
            if run.stats is not None:
                out.setdefault(run.key, run.stats)
        return out

    def digests(self) -> dict:
        out: dict = {}
        for run in self.runs:
            out.setdefault(run.key, []).append(run.digest)
        return out


def measure(workload, ops: list[Op], seconds: float, tracer=None,
            calibrate: bool = False) -> Record:
    """Run ``ops`` in order, round after round, for ``seconds``.

    Every op runs at least once; ``seconds=0`` is exactly one pass.
    The op in flight when time runs out completes.  Only ``op.run`` is
    timed (and, with a tracer, recorded as a root span).  With
    ``calibrate``, the host's speed is measured before the first op and
    after every op, and each op's time is also kept scaled by the mean
    of the two calibrations around it.
    """
    record = Record()
    if calibrate:
        record.calibrations.append(calibration_ms())
    start = time.perf_counter()
    ended = None
    count = 0
    while count < len(ops) or time.perf_counter() - start < seconds:
        op = ops[count % len(ops)]
        workload.before_op()
        t0 = time.perf_counter()
        if ended is not None:
            record.gaps.append(t0 - ended)
        try:
            if tracer is None:
                stats = op.run()
            else:
                with tracer.root("op", op=op.key):
                    stats = op.run()
        except Exception:
            stats = None
            record.errors.append(f"{op.key}: {traceback.format_exc()}")
            print(traceback.format_exc(), file=sys.stderr)
        ended = time.perf_counter()
        elapsed = ended - t0
        scale = 1.0
        if calibrate:
            record.calibrations.append(calibration_ms())
            scale = host_scale(*record.calibrations[-2:])
        record.runs.append(Run(
            op.key, elapsed, elapsed * scale,
            None if stats is None else digest(stats.to_dict()), stats,
        ))
        count += 1
    return record


def closed_metrics(record: Record) -> dict:
    """End-to-end metrics of a closed loop, from per-op medians.

    Each op's median (host-adjusted) latency stands for that op, so a
    round cut short by the clock does not tilt the mix toward the ops
    it reached.
    """
    times = record.times()
    first = record.first()
    medians = {key: percentile(ts, 50) for key, ts in times.items()}
    instructions = sum(first[key].instructions for key in medians)
    busy_ms = sum(medians.values()) * 1e3
    return {
        "op_p50_ms": percentile(medians.values(), 50) * 1e3,
        "op_p80_ms": percentile(medians.values(), 80) * 1e3,
        "sim_kips": instructions / busy_ms if busy_ms else 0.0,
    }


def check_digests(record_digests: dict, key: str, expected: str) -> list:
    """One failure message per execution of ``key`` that differs."""
    return [
        f"{key}: digest {got} != oracle {expected}"
        for got in record_digests.get(key, [])
        if got is not None and got != expected  # None: already an error
    ]


class ClosedWorkload:
    """Shared shape: ``setup`` -> ``ops`` -> ``verify``."""

    name = ""

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.quick = quick

    def make_datasets(self, pairs) -> dict:
        """Seeded inputs for each distinct ``(abbr, size)`` in ``pairs``."""
        return {
            (abbr, size): datasets.dataset_for(
                abbr, size, seed=derive_seed(self.seed, abbr, size.value))
            for abbr, size in dict.fromkeys(pairs)
        }

    def before_op(self) -> None:
        """Untimed per-op reset (none by default)."""

    def layer_extras(self, state, record: Record) -> dict:
        return {}


class CliRun(ClosedWorkload):
    """``repro run``: build the application and simulate it live."""

    name = "cli-run"

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        if quick:
            self.plan = [("SW", False, SMALL), ("NW", True, SMALL),
                         ("PairHMM", False, SMALL), ("GG", False, SMALL)]
        else:
            self.plan = [(abbr, cdp, SMALL) for abbr, cdp in variants()]
            self.plan += [("PairHMM", False, MEDIUM), ("NW", False, MEDIUM)]

    def setup(self):
        fresh_process_state()
        data = self.make_datasets((abbr, size) for abbr, _, size in self.plan)
        self.inputs = input_digest(list(data.items()))
        return data

    def before_op(self) -> None:
        fresh_process_state()

    def ops(self, data) -> list[Op]:
        return [
            Op(op_key(abbr, cdp, size),
               lambda abbr=abbr, cdp=cdp, size=size: run_benchmark(
                   abbr, cdp=cdp, size=size, workload=data[(abbr, size)]))
            for abbr, cdp, size in self.plan
        ]

    def verify(self, data, record: Record):
        """Oracle: replay of the same inputs' materialized traces."""
        failures = []
        seen = record.digests()
        for abbr, cdp, size in self.plan:
            app = CachedApplication(build_application(
                abbr, cdp=cdp, size=size, workload=data[(abbr, size)]))
            expected = replay_application(app, GPUSimulator(GPUConfig()))
            failures += check_digests(
                seen, op_key(abbr, cdp, size), digest(expected.to_dict()))
        return failures, {}


def sweep_configs(quick: bool) -> list[tuple[str, GPUConfig]]:
    """The memory-side axes of Figs 12-22 (21 configs)."""
    base = GPUConfig()
    configs = [
        (f"cache-{l1 // 1024}k-{l2 // 1024}k", with_cache_sizes(base, l1, l2))
        for l1, l2 in CACHE_SWEEP
    ]
    configs += [(f"dram-{c}", with_controller(base, c))
                for c in MEM_CONTROLLERS]
    configs += [(f"noc-{t}", with_topology(base, t)) for t in TOPOLOGIES]
    configs += [(f"mesh-delay{d}", with_topology(base, "mesh", router_delay=d))
                for d in NOC_LATENCY_SWEEP]
    configs += [(f"mesh-bw{w}", with_topology(base, "mesh", channel_bytes=w))
                for w in NOC_BANDWIDTH_SWEEP]
    return configs[::7] if quick else configs


class SweepMem(ClosedWorkload):
    """Figs 12-22: replay warm traces across memory-side configs."""

    name = "sweep-mem"
    apps = ("NvB", "GKSW")

    def setup(self):
        fresh_process_state()
        data = self.make_datasets((abbr, SMALL) for abbr in self.apps)
        self.inputs = input_digest(list(data.items()))
        points = [
            sweep.sweep_point(f"{abbr}/{label}", abbr, config, size=SMALL,
                              workload=data[(abbr, SMALL)])
            for abbr in self.apps
            for label, config in sweep_configs(self.quick)
        ]
        cache = sweep.TraceCache(store=None)
        for abbr in self.apps:
            cache.get(next(p for p in points if p.abbr == abbr))
        return SimpleNamespace(data=data, points=points, cache=cache)

    def ops(self, state) -> list[Op]:
        return [
            Op(point.label,
               lambda point=point: sweep.run_sweep(
                   [point], jobs=0, cache=state.cache, store=None
               )[point.label])
            for point in state.points
        ]

    def verify(self, state, record: Record):
        """Oracle: replay on a freshly materialized copy of each app;
        baseline-config points must also equal a live ``repro run``."""
        failures = []
        seen = record.digests()
        baseline = GPUConfig()
        for abbr in self.apps:
            workload = state.data[(abbr, SMALL)]
            app = CachedApplication(
                build_application(abbr, size=SMALL, workload=workload))
            live = digest(run_benchmark(
                abbr, size=SMALL, workload=workload).to_dict())
            for point in state.points:
                if point.abbr != abbr:
                    continue
                expected = digest(replay_application(
                    app, GPUSimulator(point.config)).to_dict())
                if point.config == baseline and expected != live:
                    failures.append(
                        f"{point.label}: replay {expected} != live {live}")
                failures += check_digests(seen, point.label, expected)
        return failures, {}

    def layer_extras(self, state, record: Record) -> dict:
        cache = state.cache
        lookups = cache.hits + cache.misses
        return {"sweep.cache_hit_frac":
                cache.hits / lookups if lookups else 0.0}


class EstSuite(ClosedWorkload):
    """Warp-sampled estimation of the suite from warm traces."""

    name = "est-suite"

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        if quick:
            self.plan = [("SW", False, SMALL), ("PairHMM", False, SMALL),
                         ("STAR", True, SMALL)]
        else:
            # NvB's medium input spends ~3 s in its functional FM-index
            # build before any trace exists; small keeps set-up bounded.
            self.plan = [
                (abbr, cdp, SMALL if abbr == "NvB" else MEDIUM)
                for abbr, cdp in variants()
            ]
        self.config = GPUConfig(
            sample_fraction=SAMPLE_FRACTION,
            sample_seed=derive_seed(seed, "sample") % 1_000_000,
        )

    def setup(self):
        fresh_process_state()
        data = self.make_datasets((abbr, size) for abbr, _, size in self.plan)
        self.inputs = input_digest(list(data.items()), self.config.sample_seed)
        return {
            op_key(abbr, cdp, size): CachedApplication(build_application(
                abbr, cdp=cdp, size=size, workload=data[(abbr, size)]))
            for abbr, cdp, size in self.plan
        }

    def ops(self, apps) -> list[Op]:
        return [
            Op(key, lambda app=app: sampled.estimate_application(
                app, self.config))
            for key, app in apps.items()
        ]

    def verify(self, apps, record: Record):
        """Oracle: exact replay.  Estimates must repeat bit-for-bit and
        pass the exact instruction total through; their cycle error and
        CI coverage against the oracle are reported, not failed."""
        failures = []
        seen = record.digests()
        first = record.first()
        errors, covered = [], 0
        for key, app in apps.items():
            exact = replay_application(app, GPUSimulator(GPUConfig()))
            est = first.get(key)
            if est is None:
                continue
            failures += check_digests(seen, key, digest(est.to_dict()))
            if est.instructions != exact.instructions:
                failures.append(f"{key}: estimated instructions "
                                f"{est.instructions} != {exact.instructions}")
            errors.append(abs(est.cycles / exact.cycles - 1.0))
            covered += est.covers("cycles", exact.cycles)
        accuracy = {
            "sampled.est_err_pct": 100.0 * sum(errors) / max(len(errors), 1),
            "sampled.ci_cover_frac": covered / max(len(errors), 1),
        }
        return failures, accuracy

    def layer_extras(self, apps, record: Record) -> dict:
        estimates = list(record.first().values())
        fractions = [
            est.sample.get("achieved_work_fraction", 1.0) for est in estimates
        ]
        return {
            "sampled.work_frac": sum(fractions) / max(len(fractions), 1),
            "sampled.exact_fallbacks": sum(
                bool(est.sample.get("exact_fallback")) for est in estimates),
        }


CLOSED = {cls.name: cls for cls in (CliRun, SweepMem, EstSuite)}
