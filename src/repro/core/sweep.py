"""Sweep execution engine: run many simulation points fast.

The figure harnesses re-simulate each benchmark across large config
grids (Figs 11-22 are 20 variants x 3-6 configs each).  Two properties
make those sweeps embarrassingly accelerable:

1. Points are independent — a ``(benchmark, cdp, size, config)`` tuple
   fully determines its :class:`RunStats` — so they fan out across
   forked chunk processes (``jobs=N``) driven by the distributed
   sweep coordinator (:mod:`repro.dist`), the one ``repro sweep
   benchmark`` also drives over remote ``--endpoints``.
2. Instruction traces depend only on the *application*, never on the
   timing config being swept, so each chunk materializes a
   benchmark's traces once (:mod:`repro.sim.replay`) and replays them
   at every config point that shares the application.

Both paths return results bit-identical to a fresh serial live
simulation per point (``tests/core/test_sweep.py``).

Cache keying
------------
A materialized application is reused across points whose
:func:`app_key` matches: ``(abbr, cdp, size, options)``.  No config
knob enters it, because applications are built without a config
(:func:`repro.kernels.build_application`): every knob (cache
geometry, schedulers, DRAM, NoC, CTA limits, ``perfect_memory``...)
is timing-side.  So are the sampled-estimation knobs
(``sample_fraction``, ``sample_seed``): an ``--estimate`` sweep
replays the very traces an exact sweep materialized, and
:func:`run_point` routes such points through :mod:`repro.sim.sampled`
instead of the cycle-exact replay.  A knob that one day changes trace
*shape* must join the key.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from repro.core.runner import load_benchmark
from repro.data.datasets import DatasetSize
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator
from repro.sim.replay import CachedApplication, replay_application
from repro.sim.stats import RunStats
from repro.sim.trace_store import TraceStore


def default_jobs() -> int:
    """The ``--jobs`` default: the CPU-affinity budget.

    The budget is the CPUs this process may actually run on
    (``os.sched_getaffinity``, which respects cgroup/taskset limits),
    not the machine-wide ``cpu_count``.  Every simulation is one
    sequential process, so this is the single core-budget source for
    the host's forked workers: ``sweep --jobs`` and the service's
    worker pool.  The benchmark harness reads its ``effective_cpus``
    from here too.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation point of a sweep.

    Everything here crosses the HTTP point codec (:func:`encode_point`),
    so every field must encode as JSON: plain benchmark identity plus a
    :class:`GPUConfig` (a frozen dataclass tree).  ``options`` are the
    extra :func:`repro.kernels.build_application` keyword arguments as
    a sorted ``(name, value)`` tuple — use :func:`sweep_point` instead
    of spelling that by hand.
    """

    label: str
    abbr: str
    cdp: bool = False
    size: DatasetSize = DatasetSize.SMALL
    config: GPUConfig = field(default_factory=GPUConfig)
    options: tuple = ()


def sweep_point(
    label: str,
    abbr: str,
    config: GPUConfig,
    cdp: bool = False,
    size: DatasetSize = DatasetSize.SMALL,
    **options,
) -> SweepPoint:
    """Build a :class:`SweepPoint`, normalizing ``options`` for keying."""
    return SweepPoint(
        label=label,
        abbr=abbr,
        cdp=cdp,
        size=size,
        config=config,
        options=tuple(sorted(options.items())),
    )


class SweepMergeError(RuntimeError):
    """The reassembled result list does not cover the input point grid.

    Carries the offending point identities so a failed sweep names
    exactly what was lost instead of silently returning a partial
    grid.
    """

    def __init__(self, missing: list[str], duplicated: list[str] = ()):
        self.missing = list(missing)
        self.duplicated = list(duplicated)
        parts = []
        if self.missing:
            parts.append(f"missing results for {len(self.missing)} "
                         f"point(s): {self.missing}")
        if self.duplicated:
            parts.append(f"duplicate results for: {self.duplicated}")
        super().__init__("; ".join(parts) or "inconsistent sweep merge")


def _wire_value(name: str, value):
    """Validate an application option as wire/key material."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"sweep option {name}={value!r} is not a JSON scalar; "
        "distributed sweeps and resume keys require plain option values"
    )


def _identity(point: SweepPoint) -> dict:
    """The result-defining fields of ``point``, JSON-safe."""
    from repro.sim.configfile import save_config

    return {
        "abbr": point.abbr,
        "cdp": point.cdp,
        "size": point.size.value,
        "options": [
            [name, _wire_value(name, value)]
            for name, value in point.options
        ],
        "config": save_config(point.config),
    }


def point_key(point: SweepPoint) -> str:
    """A stable content identity for one sweep point.

    Hashes everything that determines the point's ``RunStats`` — the
    benchmark identity plus the *full* serialized config — and nothing
    that doesn't (the display label).  This is the shared identity key
    of the sweep journal (:mod:`repro.dist.journal`, which ``repro
    sweep benchmark`` resumes from in-process, over forked workers or
    over endpoints alike), the merge check and every chunk reply: a
    result computed anywhere can be matched to its point everywhere.
    """
    material = json.dumps(_identity(point), sort_keys=True)
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def encode_point(point: SweepPoint) -> dict:
    """One sweep point as a JSON-safe dict (see :func:`decode_point`).

    The HTTP point codec: ``repro sweep benchmark --endpoints`` posts
    chunks in this form, and the service's sweep endpoint decodes
    them.  The config travels as config-file text, which round-trips
    every ``GPUConfig`` knob exactly.
    """
    return {"label": point.label, **_identity(point),
            "key": point_key(point)}


def decode_point(data: dict) -> SweepPoint:
    """Rebuild a :class:`SweepPoint` from :func:`encode_point` output.

    Raises ``ValueError`` on malformed payloads — including a ``key``
    that does not match the decoded point, which catches any
    encode/decode asymmetry before it can corrupt a result merge.
    """
    from repro.sim.configfile import parse_config

    try:
        point = sweep_point(
            str(data["label"]),
            str(data["abbr"]),
            parse_config(data["config"]),
            cdp=bool(data["cdp"]),
            size=DatasetSize(data["size"]),
            **{str(name): value for name, value in data.get("options", [])},
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed sweep point payload: {exc}") from exc
    expected = data.get("key")
    if expected is not None and point_key(point) != expected:
        raise ValueError(
            f"point {point.label!r} decoded to a different identity "
            f"({point_key(point)} != {expected}); wire corruption or "
            "version skew"
        )
    return point


def assert_merge_complete(points: list[SweepPoint], results: list) -> None:
    """Verify ``results`` covers exactly the input point grid.

    ``results`` is the reassembled per-point list (aligned with
    ``points``); a ``None`` entry is a dropped point.  Raises
    :class:`SweepMergeError` naming the missing point identities — the
    merge contract :func:`resume_merge` checks for every sweep before
    it returns.
    """
    if len(results) != len(points):
        raise SweepMergeError(
            missing=[
                f"{p.label} [{point_key(p)}]" for p in points[len(results):]
            ]
            or [f"<{len(results) - len(points)} extra results>"],
        )
    missing = [
        f"{point.label} [{point_key(point)}]"
        for point, stats in zip(points, results)
        if stats is None
    ]
    if missing:
        raise SweepMergeError(missing=missing)


def app_key(point: SweepPoint) -> tuple:
    """The trace-cache key of a point's application."""
    return (point.abbr, point.cdp, point.size, point.options)


class TraceCache:
    """Materialized applications, keyed by :func:`app_key`.

    With a :class:`~repro.sim.trace_store.TraceStore` attached, misses
    first consult the on-disk store (cross-process / cross-session
    reuse) and cold builds are published back to it — coordinated so
    concurrent workers build each application exactly once.
    """

    def __init__(self, store: TraceStore | None = None):
        self._entries: dict[tuple, CachedApplication] = {}
        self.store = store
        self.hits = 0
        self.misses = 0
        self.store_hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _build(self, point: SweepPoint) -> CachedApplication:
        return load_benchmark(
            point.abbr,
            cdp=point.cdp,
            size=point.size,
            **dict(point.options),
        )

    def get(self, point: SweepPoint) -> CachedApplication:
        """The cached application for ``point``, building it on miss."""
        key = app_key(point)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        if self.store is None:
            entry = self._build(point)
        else:
            before = self.store.hits
            entry = self.store.get_or_build(
                key, lambda: self._build(point)
            )
            if self.store.hits > before:
                self.store_hits += 1
        self._entries[key] = entry
        return entry

    def release(self, point: SweepPoint) -> None:
        """Drop ``point``'s application, if cached."""
        self._entries.pop(app_key(point), None)


def run_point(point: SweepPoint, cache: TraceCache | None = None) -> RunStats:
    """Simulate one sweep point (through ``cache`` when given).

    A point whose config sets ``sample_fraction > 0`` is routed to the
    sampled estimator (:mod:`repro.sim.sampled`) and returns an
    :class:`~repro.sim.sampled.EstimatedRunStats`.  Like every config
    knob, the sample knobs are absent from :func:`app_key`, so exact
    and estimated points of the same application share materialized
    traces, whether built here or loaded from the trace store.
    """
    if cache is None:
        cache = TraceCache()
    entry = cache.get(point)
    if point.config.sample_fraction > 0.0:
        from repro.sim.sampled import estimate_application

        return estimate_application(entry, point.config)
    return replay_application(entry, GPUSimulator(point.config))


def _resolve_store(store) -> TraceStore | None:
    """Normalize ``run_sweep``'s ``store`` argument.

    ``"env"`` reads ``REPRO_TRACE_STORE`` (None when unset), a path
    opens a store there, None disables the store, and an existing
    :class:`TraceStore` passes through.
    """
    if store == "env":
        return TraceStore.from_env()
    if store is None or isinstance(store, TraceStore):
        return store
    return TraceStore(store)


def resume_merge(points: list[SweepPoint], resume, run) -> dict:
    """Run what ``resume`` does not know; merge back in input order.

    The one normalization every fan-out path shares: labels must be
    unique, points whose :func:`point_key` is in ``resume`` (a
    ``{point_key: RunStats}`` mapping) are filled from it without
    running, and ``run(todo)`` returns one result per remaining point,
    aligned with ``todo``.  The merge is checked against the grid
    (:func:`assert_merge_complete`) before anything is returned.
    """
    labels = [point.label for point in points]
    if len(set(labels)) != len(labels):
        raise ValueError("sweep point labels must be unique")
    hits = {}
    if resume:
        for index, point in enumerate(points):
            known = resume.get(point_key(point))
            if known is not None:
                hits[index] = known
    todo = [point for index, point in enumerate(points) if index not in hits]
    fresh = list(run(todo)) if todo else []
    assert_merge_complete(todo, fresh)
    merged = iter(fresh)
    return {
        point.label: hits[index] if index in hits else next(merged)
        for index, point in enumerate(points)
    }


def run_sweep(
    points: list[SweepPoint],
    jobs: int | None = 0,
    cache: TraceCache | None = None,
    store="env",
    journal=None,
) -> dict[str, RunStats]:
    """Run every point; returns ``{point.label: RunStats}`` in input order.

    ``jobs=0`` runs in-process (sharing ``cache``, or a private one);
    ``jobs=N`` hands the grid to the distributed sweep coordinator
    (:func:`repro.dist.run_dsweep`) over ``N`` local worker slots,
    one chunk per application group, each run by a forked child that
    materializes the application's traces once and exits;
    ``jobs=None`` uses one slot per CPU.
    Results are bit-identical across all three paths.  Where the
    platform cannot fork, every ``jobs`` value runs in-process.

    ``store`` selects the persistent trace store (see
    :func:`_resolve_store`): the default ``"env"`` honours the
    ``REPRO_TRACE_STORE`` environment variable.  When a ``cache`` is
    passed for the in-process path, its own store setting wins.

    ``journal`` (a path or :class:`~repro.dist.journal.SweepJournal`)
    makes the sweep resumable: points the journal already holds are
    filled from it without simulating (:func:`resume_merge`), and each
    newly finished point — each chunk, with ``jobs>=1`` — is appended
    as it completes, so an interrupted sweep keeps its finished points.
    """
    if jobs is None:
        jobs = default_jobs()
    if jobs < 0:
        raise ValueError("jobs must be >= 0")

    from repro.core.forked import CAN_FORK

    resolved = _resolve_store(store)
    if jobs == 0 or not CAN_FORK:
        local = cache if cache is not None else TraceCache(store=resolved)
        known = None
        if journal is not None:
            # ``repro.dist`` imports this module, so it loads only here.
            from repro.dist.journal import SweepJournal

            if not isinstance(journal, SweepJournal):
                journal = SweepJournal(journal)
            known = journal.open()

        def run(todo):
            # A private cache drops each application after its last
            # point, so a sweep holds one application at a time when
            # its points come grouped by application.
            last = {app_key(point): point for point in todo}
            for point in todo:
                stats = run_point(point, local)
                if cache is None and last[app_key(point)] is point:
                    local.release(point)
                if journal is not None:
                    journal.record([point_key(point)], [stats])
                yield stats

        return resume_merge(points, known, run)

    from repro.dist import LocalProcessLauncher, run_dsweep

    store_root = str(resolved.root) if resolved is not None else None
    with LocalProcessLauncher(workers=jobs, store=store_root) as launcher:
        return run_dsweep(points, launcher, journal=journal)


def suite_points(
    benchmarks: list[str] | None = None,
    cdp_variants: bool = True,
    size: DatasetSize = DatasetSize.SMALL,
    config: GPUConfig | None = None,
) -> list[SweepPoint]:
    """The whole-suite point list (labels match ``run_suite`` keys)."""
    from repro.core.runner import variant_name
    from repro.kernels import benchmark_names

    config = config or GPUConfig()
    points = []
    for abbr in benchmarks or benchmark_names():
        for cdp in (False, True) if cdp_variants else (False,):
            points.append(
                sweep_point(variant_name(abbr, cdp), abbr, config,
                            cdp=cdp, size=size)
            )
    return points
