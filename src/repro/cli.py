"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list
    Table III: the ten benchmarks and their properties.
run ABBR
    Run one benchmark on the GPU model and print its characterization
    (``--estimate`` switches to the sampled estimator and reports
    confidence intervals instead of exact counts).
suite
    Run every benchmark (with CDP variants) and print a summary table.
sweep AXIS
    Run a config sweep across the suite through the sweep engine
    (``--jobs N`` fans points out over worker processes; ``--store
    DIR`` persists materialized traces across invocations;
    ``--estimate`` routes every point through the sampled estimator
    for 10x+ config-space exploration).  The ``benchmark`` axis runs
    the whole suite at one config with per-variant rank columns; its
    points go to the distributed coordinator, one chunk per
    application, over ``--jobs N`` forked workers or remote ``repro
    serve`` instances (``--endpoints``), with straggler re-dispatch,
    bounded retry (``--chunk-timeout``, ``--max-retries``) and a merge
    bit-identical to ``--jobs 0``.  ``--journal FILE`` (keyed by point
    identity) makes it resumable, whichever path wrote the journal.
warm
    Materialize benchmark traces into the persistent trace store so
    later runs (sweeps, CI jobs, other processes) start warm
    (``--shard I/N`` warms one host's deterministic slice).
store
    Pack the trace store into a CRC-checked archive, or unpack one
    produced on another host (fingerprint-validated).
figure KEY
    Print one registered table: a table or figure of the paper, an
    ablation or the extension (e.g. ``fig3``; see
    :data:`repro.bench.EXPERIMENTS`).
profile ABBR
    Run one benchmark with the interval sampler on and print the
    per-interval time series (``--trace``/``--jsonl`` export files).
dataset ABBR
    Write a benchmark's synthetic input dataset to FASTA/FASTQ files.
trace ABBR
    Capture a benchmark's first host launch to an RTRX trace file.
replay FILE
    Re-simulate an RTRX file: ``repro trace`` output or a store entry.
serve
    Run the simulation service: typed simulate/sweep/profile/estimate
    HTTP endpoints over an async job queue with a content-addressed
    result cache (see :mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from repro.bench import EXPERIMENTS, sweep_axes
from repro.core import (
    BenchmarkSuite,
    baseline_config,
    format_breakdown,
    format_kernel_profile,
    format_table,
)
from repro.data.datasets import DatasetSize
from repro.kernels import benchmark_names
from repro.sim.launch import Application, HostLaunch
from repro.sim.occupancy import CTAMisfit


_SIZES = tuple(size.value for size in DatasetSize)


def _size(value: str) -> DatasetSize:
    try:
        return DatasetSize(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid value {value!r}: choose from {', '.join(_SIZES)}"
        ) from None


def _add_machine_args(parser: argparse.ArgumentParser, machine: bool = True,
                      size: bool = True) -> None:
    """``--sms``/``--config`` (``machine``) and ``--size``.

    Each command takes only the flags it reads, so argparse refuses
    the others rather than accept and ignore them.
    """
    if machine:
        parser.add_argument(
            "--sms", type=_positive_int, default=None,
            help="number of SMs (default: the paper's 78)",
        )
        parser.add_argument(
            "--config", type=_config_file, default=None, metavar="FILE",
            help="simulator config file (see repro.sim.configfile)",
        )
    if size:
        parser.add_argument(
            "--size", type=_size, default=DatasetSize.SMALL,
            metavar="{" + ",".join(_SIZES) + "}", help="dataset scale",
        )


def _config_file(path: str):
    """``--config FILE`` as a GPUConfig; defects name file, line, key.

    A file describes the machine: sampling is ``--estimate``'s job.
    """
    from repro.sim.configfile import config_from_entries, parse_entries

    try:
        entries = parse_entries(Path(path).read_text())
        for lineno, key, value in entries:
            if key == "sample_fraction" and value:
                raise ValueError(
                    f"line {lineno}: {key}: request sampled estimation "
                    "with --estimate --sample-fraction, not a config file"
                )
        return config_from_entries(entries)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"{path}: {exc}") from None


def _benchmark(text: str) -> str:
    if text not in benchmark_names():
        raise argparse.ArgumentTypeError(
            f"unknown benchmark {text!r}; choose from {benchmark_names()}"
        )
    return text


def _number(text: str, kind: type):
    """``text`` as an int or float; a usage error, not ``ValueError``."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: expected {noun}"
        ) from None


def _positive_int(text: str) -> int:
    value = _number(text, int)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _positive_float(text: str) -> float:
    value = _number(text, float)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def _port(text: str) -> int:
    value = _number(text, int)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError("must be in [0, 65535]")
    return value


def _endpoints(text: str) -> list[str]:
    """``HOST:PORT[,HOST:PORT...]``, every port in [1, 65535]."""
    entries = text.split(",")
    for entry in entries:
        host, _, port = entry.rpartition(":")
        if not (host and port.isdigit() and 1 <= int(port) <= 65535):
            raise argparse.ArgumentTypeError(
                f"invalid endpoint {entry!r}: expected HOST:PORT with a "
                "port in [1, 65535]"
            )
    return entries


def _fraction(text: str) -> float:
    value = _number(text, float)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError("must be in (0, 1]")
    return value


#: ``--estimate``'s sampling flags and their defaults
_SAMPLE_DEFAULTS = {"sample_fraction": 0.1, "sample_seed": 0}


def _add_estimate_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--estimate", action="store_true",
        help="sampled-estimation mode: simulate a stratified warp "
             "sample and report estimates with confidence intervals "
             "(exact simulation stays the default)",
    )
    # Defaults are applied in ``_estimate_config``: None marks a flag
    # the command line did not give, which ``main`` needs to see.
    parser.add_argument(
        "--sample-fraction", type=_fraction, default=None, metavar="F",
        help="fraction of work to simulate under --estimate "
             f"(default: {_SAMPLE_DEFAULTS['sample_fraction']})",
    )
    parser.add_argument(
        "--sample-seed", type=int, default=None, metavar="S",
        help="deterministic sampling seed under --estimate "
             f"(default: {_SAMPLE_DEFAULTS['sample_seed']})",
    )


def _estimate_config(args, config):
    """Apply the ``--estimate`` sampling knobs to ``config``."""
    return config.with_(**{
        name: default if getattr(args, name) is None else getattr(args, name)
        for name, default in _SAMPLE_DEFAULTS.items()
    })


def _sampling_without_estimate(args) -> str | None:
    """The first sampling flag given without ``--estimate``, if any
    (it would otherwise be ignored while the exact table prints)."""
    if getattr(args, "estimate", True):
        return None
    for name in _SAMPLE_DEFAULTS:
        if getattr(args, name) is not None:
            return "--" + name.replace("_", "-")
    return None


def _config(args):
    config = getattr(args, "config", None) or baseline_config()
    if args.sms is not None:
        config = config.with_(num_sms=args.sms)
    return config


def cmd_list(args) -> int:
    suite = BenchmarkSuite(_config(args))
    rows = []
    for abbr in suite.names():
        props = suite.properties(abbr)
        rows.append({
            "abbr": props.abbr,
            "name": props.full_name,
            "grid": props.grid[0],
            "cta": props.cta[0],
            "shared": "yes" if props.uses_shared else "no",
            "cta/core": props.cta_per_core_model,
            "limiter": props.limiter,
        })
    print(format_table(rows))
    return 0


def cmd_run(args) -> int:
    if args.estimate:
        # The estimator replays a miniature machine of its own: the
        # exact core's per-kernel profile doesn't apply, and silently
        # ignoring it would misreport what ran.
        if args.profile:
            print("--estimate cannot be combined with exact-only flags: "
                  "--profile", file=sys.stderr)
            return 2
        return _run_estimate(args)
    suite = BenchmarkSuite(_config(args), size=args.size)
    stats = suite.run(args.benchmark, cdp=args.cdp)
    name = suite.variant_name(args.benchmark, args.cdp)
    print(f"{name}: {stats.instructions} instructions, "
          f"{stats.cycles} kernel cycles (IPC {stats.ipc:.3f})")
    print(f"kernel launches: {stats.kernel_launches} host"
          f" + {stats.device_launches} device; "
          f"memcpys: {stats.memcpy_calls}")
    print(f"device time: {stats.device_time()} cycles; "
          f"PCI time: {stats.pci_cycles} cycles")
    print(f"L1 miss {stats.l1.miss_rate:.3f}  L2 miss {stats.l2.miss_rate:.3f}  "
          f"DRAM util {stats.dram_utilization():.3f}")
    print("\nStall breakdown:")
    print(format_breakdown(stats.stall_breakdown()))
    if args.profile:
        print("\nPer-kernel profile:")
        print(format_kernel_profile(stats))
    return 0


def _run_estimate(args) -> int:
    """``repro run --estimate``: sampled estimates with error bounds."""
    from repro.core.report import format_estimate, format_sample_note
    from repro.core.runner import estimate_benchmark, variant_name

    config = _estimate_config(args, _config(args))
    stats = estimate_benchmark(
        args.benchmark, cdp=args.cdp, size=args.size, config=config
    )
    name = variant_name(args.benchmark, args.cdp)
    mode = "estimated" if stats.estimated else "estimated (exact fallback)"
    print(f"{name} ({mode}): {stats.instructions} instructions, "
          f"~{stats.cycles} kernel cycles (IPC {stats.ipc:.3f})")
    print(format_sample_note(stats))
    print()
    print(format_estimate(stats))
    print("\nStall breakdown (estimated):")
    print(format_breakdown(stats.stall_breakdown()))
    return 0


def _unwritable(path: str) -> str | None:
    """Why a file cannot be created at ``path``, or None if it can."""
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.exists(parent):
        return os.strerror(errno.ENOENT)
    if not os.path.isdir(parent):
        return os.strerror(errno.ENOTDIR)
    if not os.access(parent, os.W_OK | os.X_OK):
        return os.strerror(errno.EACCES)
    return None


def _journal_error(path: str | None) -> str | None:
    """Why ``--journal PATH`` cannot be used, or None once it is started.

    Runs before any point: a bad path, or a file that is not a sweep
    journal, must fail with the flag named, not mid-sweep.
    """
    if path is None:
        return None
    from repro.dist.journal import SweepJournal

    reason = _unwritable(path)
    if reason is None:
        try:
            SweepJournal(path).open()
            return None
        except OSError as exc:
            reason = exc.strerror
        except ValueError as exc:
            return f"--journal: {exc}"
    return f"--journal: cannot use {path}: {reason}"


def cmd_profile(args) -> int:
    """Run one benchmark with telemetry on; print/export the series."""
    from repro.core.report import format_interval_profile
    from repro.core.runner import run_benchmark, variant_name
    from repro.sim.telemetry import write_chrome_trace, write_jsonl

    # Check the export paths up front: a bad one must fail before the
    # simulation, not after it.
    for flag, path in (("--trace", args.trace), ("--jsonl", args.jsonl)):
        reason = _unwritable(path) if path else None
        if reason is not None:
            print(f"{flag}: cannot write {path}: {reason}", file=sys.stderr)
            return 2
    config = _config(args).with_(telemetry_interval=args.interval)
    stats = run_benchmark(
        args.benchmark, cdp=args.cdp, size=args.size, config=config
    )
    summary = stats.telemetry
    name = variant_name(args.benchmark, args.cdp)
    meta = summary["meta"]
    rows = summary["rows"]
    # meta["cycles"] is kernel-device cycles; the sampled timeline also
    # covers host phases (memcpys, launch gaps), so report both spans.
    timeline = rows[-1]["end"] if rows else 0
    print(f"{name}: {meta['instructions']} instructions, "
          f"{meta['cycles']} kernel cycles on a {timeline}-cycle "
          f"timeline, sampled every {meta['interval']} cycles "
          f"({len(rows)} intervals, "
          f"{len(summary['events'])} events)")
    print(format_interval_profile(summary, max_rows=args.max_rows))
    if args.trace:
        write_chrome_trace(summary, args.trace)
        print(f"chrome trace (Perfetto / chrome://tracing): {args.trace}")
    if args.jsonl:
        write_jsonl(summary, args.jsonl)
        print(f"jsonl time series: {args.jsonl}")
    return 0


def cmd_suite(args) -> int:
    suite = BenchmarkSuite(_config(args), size=args.size)
    results = suite.run_all(cdp_variants=not args.no_cdp)
    rows = []
    for name, stats in results.items():
        rows.append({
            "benchmark": name,
            "device_time": stats.device_time(),
            "ipc": round(stats.ipc, 3),
            "launches": stats.kernel_launches + stats.device_launches,
            "l1_miss": round(stats.l1.miss_rate, 3),
            "l2_miss": round(stats.l2.miss_rate, 3),
            "top_stall": max(stats.stall_breakdown(),
                             key=stats.stall_breakdown().get)
            if stats.stalls else "-",
        })
    print(format_table(rows))
    return 0


def _nonneg_int(text: str) -> int:
    value = _number(text, int)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def cmd_sweep(args) -> int:
    from repro.core.sweep import default_jobs
    from repro.dist import DistSweepError

    for flag, given in (("--journal", args.journal is not None),
                        ("--no-cdp", args.no_cdp),
                        ("--endpoints", args.endpoints is not None),
                        ("--chunk-timeout", args.chunk_timeout is not None),
                        ("--max-retries", args.max_retries is not None)):
        if args.axis != "benchmark" and given:
            print(f"{flag} only applies to the benchmark axis",
                  file=sys.stderr)
            return 2
    if args.endpoints and args.store is not None:
        print("--store cannot be combined with --endpoints: remote "
              "workers read their own REPRO_TRACE_STORE", file=sys.stderr)
        return 2
    if args.store:
        # The sweep engine's default store resolution reads the
        # environment, so one assignment threads the store through
        # every harness down to the chunk children.
        os.environ["REPRO_TRACE_STORE"] = args.store
    config = _config(args)
    if args.estimate:
        # run_point routes every sampled point through the estimator;
        # traces are still shared with exact sweeps (no config knob is
        # part of the trace-cache key).
        config = _estimate_config(args, config)
    jobs = default_jobs() if args.jobs is None else args.jobs
    try:
        if args.axis == "benchmark":
            return _sweep_benchmark(args, config, jobs)
        rows = sweep_axes()[args.axis](
            config=config, size=args.size, jobs=jobs
        )
    except DistSweepError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    print(format_table(rows))
    return 0


def _print_benchmark_table(results) -> None:
    """One row per variant: cycles, CI, IPC, rank by cycles.

    The same bytes for the same grid whichever path ran it — the CI
    ``dist-smoke`` job ``cmp``'s ``--jobs 0``, ``--jobs 2`` and
    ``--endpoints``.
    """
    order = sorted(results, key=lambda name: (results[name].cycles, name))
    ranks = {name: i + 1 for i, name in enumerate(order)}
    rows = []
    for name, stats in results.items():
        lo, hi = getattr(stats, "intervals", {}).get(
            "cycles", (stats.cycles, stats.cycles)
        )
        rows.append({
            "benchmark": name,
            "cycles": stats.cycles,
            "ci_lo": int(lo),
            "ci_hi": int(hi),
            "ipc": round(stats.ipc, 3),
            "rank": ranks[name],
        })
    print(format_table(rows))


def _sweep_benchmark(args, config, jobs: int) -> int:
    """The ``benchmark`` axis: the whole suite at one config.

    The table is the view the CI ``sampled-smoke`` job diffs against
    the committed exact baseline (estimation must preserve the exact
    mode's ranking).  ``--jobs 0`` runs the points in-process; ``--jobs
    N`` and ``--endpoints`` hand them to the coordinator, which prints
    its dispatch summary on stderr.  ``--journal FILE`` records each
    finished point and skips those the journal already holds (matched
    by content identity, whichever path wrote it).
    """
    from repro.core.forked import CAN_FORK
    from repro.core.sweep import run_sweep, suite_points
    from repro.dist import LocalProcessLauncher, ServiceLauncher, run_dsweep

    if args.endpoints and args.jobs is not None:
        print("--jobs cannot be combined with --endpoints: each endpoint "
              "is one worker", file=sys.stderr)
        return 2
    in_process = not args.endpoints and (jobs == 0 or not CAN_FORK)
    budget = {name: getattr(args, name)
              for name in ("chunk_timeout", "max_retries")
              if getattr(args, name) is not None}
    if in_process and budget:
        flag = "--" + next(iter(budget)).replace("_", "-")
        print(f"{flag} needs worker processes: --jobs 0 runs in-process",
              file=sys.stderr)
        return 2
    error = _journal_error(args.journal)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    points = suite_points(cdp_variants=not args.no_cdp, size=args.size,
                          config=config)
    if in_process:
        _print_benchmark_table(run_sweep(points, jobs=0,
                                         journal=args.journal))
        return 0
    if args.endpoints:
        launcher = ServiceLauncher(args.endpoints)
    else:
        launcher = LocalProcessLauncher(
            workers=jobs, store=os.environ.get("REPRO_TRACE_STORE") or None,
        )
    with launcher:
        results = run_dsweep(points, launcher, journal=args.journal,
                             **budget)
    _print_benchmark_table(results)
    stats = run_dsweep.last_stats
    print(
        f"# sweep: {stats['chunks']} chunk(s) dispatched, "
        f"{stats['resumed']} point(s) resumed from journal, "
        f"{stats['retries']} retried, "
        f"{stats['redispatches']} straggler re-dispatches",
        file=sys.stderr,
    )
    return 0


def _shard(text: str) -> tuple[int, int]:
    """Parse ``--shard I/N`` (0-based shard index of N)."""
    try:
        index, _, count = text.partition("/")
        index, count = int(index), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError("expected I/N, e.g. 0/4") from None
    if count < 1 or not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"shard index must be in [0, {count}) for {text!r}"
        )
    return index, count


def cmd_warm(args) -> int:
    """Materialize application traces into the persistent store."""
    from repro.core.runner import variant_name
    from repro.core.sweep import TraceCache, sweep_point
    from repro.sim.trace_store import TraceStore

    root = args.store or os.environ.get("REPRO_TRACE_STORE")
    if not root:
        print("no trace store: pass --store DIR or set REPRO_TRACE_STORE",
              file=sys.stderr)
        return 2
    store = TraceStore(root)
    # Create the root up front: a bad path must fail before the first
    # application is materialized, not from the store's lazy mkdir.
    try:
        store.root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        source = "--store" if args.store else "REPRO_TRACE_STORE"
        reason = "not a directory" if store.root.exists() else exc.strerror
        print(f"{source}: cannot use trace store {root}: {reason}",
              file=sys.stderr)
        return 2
    benchmarks = args.benchmarks or benchmark_names()
    variants = [
        (abbr, cdp)
        for abbr in benchmarks
        for cdp in ((False,) if args.no_cdp else (False, True))
    ]
    if args.shard is not None:
        # Deterministic round-robin slice of the variant list: N hosts
        # running shards 0/N..N-1/N materialize disjoint subsets that
        # union to the whole warm set (then sync via `repro store
        # pack`/`unpack`).
        index, count = args.shard
        variants = variants[index::count]
        print(f"shard {index}/{count}: {len(variants)} variant(s)")
    cache = TraceCache(store=store)
    for abbr, cdp in variants:
        name = variant_name(abbr, cdp)
        hits, builds = store.hits, store.builds
        # The trace-cache key reads no config knob: any machine will do.
        cache.get(sweep_point(name, abbr, baseline_config(), cdp=cdp,
                              size=args.size))
        if store.hits > hits:
            state = "already stored"
        elif store.builds > builds:
            state = "materialized"
        else:  # pragma: no cover - in-memory duplicate
            state = "cached"
        print(f"{name}: {state}")
    print(f"store: {store.root} ({store.builds} built, "
          f"{store.hits} already present)")
    return 0


def cmd_store(args) -> int:
    """Pack/unpack trace-store entries for host-to-host sync."""
    from repro.sim.trace_store import TraceStore

    root = args.store or os.environ.get("REPRO_TRACE_STORE")
    if not root:
        print("no trace store: pass --store DIR or set REPRO_TRACE_STORE",
              file=sys.stderr)
        return 2
    store = TraceStore(root)
    if args.action == "pack":
        reason = _unwritable(args.archive)
        if reason is not None:
            print(f"archive: cannot write {args.archive}: {reason}",
                  file=sys.stderr)
            return 2
        count = store.pack(args.archive)
        print(f"packed {count} entr{'y' if count == 1 else 'ies'} "
              f"from {store.root} into {args.archive}")
        return 0
    try:
        count = store.unpack(args.archive)
    except (OSError, ValueError) as exc:
        print(f"unpack failed: {exc}", file=sys.stderr)
        return 1
    print(f"unpacked {count} entr{'y' if count == 1 else 'ies'} "
          f"into {store.root}")
    return 0


def cmd_figure(args) -> int:
    entry = EXPERIMENTS.get(args.name.lower())
    if entry is None:
        print(f"unknown figure {args.name!r}; known: "
              f"{', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    # A machine flag the table cannot take is refused, never dropped:
    # a right-looking table at the wrong size is a wrong number.
    for flag, value, param, noun in (
        ("--sms", args.sms, "config", "machine config"),
        ("--config", args.config, "config", "machine config"),
        ("--size", args.size, "size", "dataset size"),
    ):
        if value is not None and param not in entry.takes:
            print(f"repro figure {args.name}: argument {flag}: "
                  f"{entry.key} takes no {noun}", file=sys.stderr)
            return 2
    kwargs = {}
    if "config" in entry.takes:
        kwargs["config"] = _config(args)
    if args.size is not None:
        kwargs["size"] = args.size
    rows = entry.run(**kwargs)
    if args.chart:
        from repro.core.report import format_bar_chart

        label = next(iter(rows[0]))
        numeric = [
            key for key, value in rows[0].items()
            if key != label and isinstance(value, (int, float))
        ]
        print(format_bar_chart(rows, label, numeric[:4]))
    else:
        print(format_table(rows))
    return 0


def cmd_dataset(args) -> int:
    from repro.data import write_fasta, write_fastq
    from repro.data.datasets import dataset_for
    from repro.data.workloads import (
        BatchAlignmentWorkload,
        ClusterWorkload,
        MSAWorkload,
        PairHMMWorkload,
        PairwiseWorkload,
        ReadMappingWorkload,
    )
    from repro.genomics.sequence import DNA, Sequence

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        reason = "not a directory" if out.exists() else exc.strerror
        print(f"--out: cannot use {out}: {reason}", file=sys.stderr)
        return 2
    workload = dataset_for(args.benchmark, args.size)
    written: list[Path] = []

    def save_fasta(name, sequences):
        path = out / f"{args.benchmark.lower()}_{name}.fasta"
        write_fasta(sequences, path)
        written.append(path)

    if isinstance(workload, PairwiseWorkload):
        save_fasta("pair", [workload.query, workload.target])
    elif isinstance(workload, BatchAlignmentWorkload):
        save_fasta("queries", workload.queries)
        save_fasta("targets", workload.targets)
    elif isinstance(workload, (MSAWorkload, ClusterWorkload)):
        save_fasta("sequences", workload.sequences)
    elif isinstance(workload, PairHMMWorkload):
        save_fasta("reads", [
            Sequence(f"read{i}", r, DNA)
            for i, r in enumerate(workload.reads)
        ])
        save_fasta("haplotypes", [
            Sequence(f"hap{i}", h, DNA)
            for i, h in enumerate(workload.haplotypes)
        ])
    elif isinstance(workload, ReadMappingWorkload):
        save_fasta("reference", [workload.reference])
        path = out / f"{args.benchmark.lower()}_reads.fastq"
        write_fastq(workload.reads, path)
        written.append(path)
    for path in written:
        print(path)
    return 0


class _FirstLaunch(Application):
    """An application cut down to one host launch (``repro trace``)."""

    def __init__(self, app: Application, op: HostLaunch):
        self.name = app.name
        self.may_device_launch = app.may_device_launch
        self.op = op

    def host_program(self):
        yield self.op


def _first_launch(app) -> HostLaunch | None:
    return next(
        (op for op in app.host_program() if isinstance(op, HostLaunch)),
        None,
    )


def cmd_trace(args) -> int:
    """Capture a benchmark's first kernel launch to a trace file."""
    from repro.kernels import build_application
    from repro.sim.replay import CachedApplication
    from repro.sim.trace_store import encode_bytes

    # Check the output path up front: a bad one must fail before the
    # application is built, not after it.
    reason = _unwritable(args.out)
    if reason is not None:
        print(f"--out: cannot write {args.out}: {reason}", file=sys.stderr)
        return 2
    app = build_application(args.benchmark, size=args.size)
    op = _first_launch(app)
    if op is None:
        print("application never launched a kernel", file=sys.stderr)
        return 1
    entry = CachedApplication(_FirstLaunch(app, op))
    Path(args.out).write_bytes(encode_bytes(entry))
    print(f"captured {op.launch.kernel.name} "
          f"({op.launch.num_ctas} CTAs) -> {args.out}")
    return 0


def cmd_replay(args) -> int:
    """Re-simulate a trace file (``repro trace`` or a store entry)."""
    from repro.sim import GPUSimulator
    from repro.sim.replay import replay_application
    from repro.sim.trace_store import decode_bytes

    try:
        entry = decode_bytes(Path(args.trace).read_bytes())
    except OSError as exc:
        print(f"cannot read trace file {args.trace}: {exc.strerror}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bad trace file {args.trace}: {exc}", file=sys.stderr)
        return 2
    op = _first_launch(entry)
    if op is None:
        print(f"bad trace file {args.trace}: no kernel launch",
              file=sys.stderr)
        return 2
    stats = replay_application(entry, GPUSimulator(_config(args)))
    print(f"replayed {op.launch.kernel.name}: {stats.instructions} "
          f"instructions, {stats.kernel_cycles} cycles "
          f"(IPC {stats.ipc:.3f})")
    print(format_breakdown(stats.stall_breakdown()))
    return 0


def cmd_serve(args) -> int:
    """Run the simulation service (blocking)."""
    from repro.service.server import is_port_in_use_error, serve

    try:
        serve(
            host=args.host,
            port=args.port,
            workers=args.workers,
            cache_root=args.cache,
            artifact_root=args.artifacts,
            cache_max_bytes=args.cache_max_bytes,
            cache_max_entries=args.cache_max_entries,
        )
    except OSError as exc:
        if is_port_in_use_error(exc):
            print(f"cannot bind {args.host}:{args.port}: {exc.strerror} "
                  "(is another server running? pass --port to move)",
                  file=sys.stderr)
            return 2
        raise
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Genomics-GPU benchmark suite (ISPASS 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="Table III benchmark properties")
    _add_machine_args(p_list, size=False)
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="run one benchmark")
    p_run.add_argument("benchmark", type=_benchmark)
    p_run.add_argument("--cdp", action="store_true",
                       help="run the CDP variant")
    p_run.add_argument("--profile", action="store_true",
                       help="print an nvprof-style per-kernel profile")
    _add_machine_args(p_run)
    _add_estimate_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_prof = sub.add_parser(
        "profile", help="run one benchmark with the interval sampler on"
    )
    p_prof.add_argument("benchmark", type=_benchmark)
    p_prof.add_argument("--cdp", action="store_true",
                        help="profile the CDP variant")
    p_prof.add_argument(
        "--interval", type=_positive_int, default=10_000, metavar="N",
        help="sampling interval in cycles (default: 10000)",
    )
    p_prof.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome trace_event file (Perfetto-viewable)",
    )
    p_prof.add_argument(
        "--jsonl", default=None, metavar="FILE",
        help="write the interval rows and events as JSONL",
    )
    p_prof.add_argument(
        "--max-rows", type=int, default=40, metavar="N",
        help="intervals to print (default: 40; exports are never clipped)",
    )
    _add_machine_args(p_prof)
    p_prof.set_defaults(func=cmd_profile)

    p_suite = sub.add_parser("suite", help="run the whole suite")
    p_suite.add_argument("--no-cdp", action="store_true",
                         help="skip the CDP variants")
    _add_machine_args(p_suite)
    p_suite.set_defaults(func=cmd_suite)

    p_sweep = sub.add_parser(
        "sweep", help="run a config sweep through the sweep engine"
    )
    p_sweep.add_argument(
        "axis", choices=sorted(sweep_axes()) + ["benchmark"],
        help="which config axis to sweep ('benchmark' runs the whole "
             "suite at one config, with per-variant rank columns)",
    )
    p_sweep.add_argument(
        "--jobs", type=_nonneg_int, default=None, metavar="N",
        help="worker processes (default: one per CPU; 0 = in-process)",
    )
    p_sweep.add_argument(
        "--endpoints", type=_endpoints, default=None,
        metavar="HOST:PORT,...",
        help="benchmark axis: dispatch chunks to remote `repro serve` "
             "instances, one worker each, instead of --jobs workers",
    )
    # None marks a budget the command line did not give (``run_dsweep``
    # holds the defaults); --jobs 0 refuses a given one.
    p_sweep.add_argument(
        "--chunk-timeout", type=_positive_float, default=None, metavar="S",
        help="benchmark axis: per-chunk deadline in seconds "
             "(default: none)",
    )
    p_sweep.add_argument(
        "--max-retries", type=_nonneg_int, default=None, metavar="N",
        help="benchmark axis: re-dispatch attempts per chunk before "
             "failing the sweep (default: 2)",
    )
    p_sweep.add_argument(
        "--store", default=None, metavar="DIR",
        help="persistent trace store directory "
             "(default: $REPRO_TRACE_STORE when set; refused with "
             "--endpoints)",
    )
    p_sweep.add_argument(
        "--no-cdp", action="store_true",
        help="benchmark axis: skip the CDP variants (other axes refuse "
             "it)",
    )
    p_sweep.add_argument(
        "--journal", default=None, metavar="FILE",
        help="benchmark axis: sweep journal; finished points are "
             "recorded, and a rerun skips them",
    )
    _add_machine_args(p_sweep)
    _add_estimate_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_warm = sub.add_parser(
        "warm", help="materialize traces into the persistent store"
    )
    p_warm.add_argument("benchmarks", nargs="*", type=_benchmark,
                        help="benchmark subset (default: all)")
    p_warm.add_argument("--no-cdp", action="store_true",
                        help="skip the CDP variants")
    p_warm.add_argument(
        "--store", default=None, metavar="DIR",
        help="store directory (default: $REPRO_TRACE_STORE)",
    )
    p_warm.add_argument(
        "--shard", type=_shard, default=None, metavar="I/N",
        help="warm only this host's deterministic slice of the variant "
             "list (N hosts run shards 0/N..N-1/N)",
    )
    _add_machine_args(p_warm, machine=False)
    p_warm.set_defaults(func=cmd_warm)

    p_store = sub.add_parser(
        "store", help="pack/unpack the trace store for host-to-host sync"
    )
    p_store.add_argument("action", choices=("pack", "unpack"))
    p_store.add_argument("archive", help="archive file (RPAK format)")
    p_store.add_argument(
        "--store", default=None, metavar="DIR",
        help="store directory (default: $REPRO_TRACE_STORE)",
    )
    p_store.set_defaults(func=cmd_store)

    p_fig = sub.add_parser("figure", help="regenerate a table/figure")
    p_fig.add_argument("name", help="an experiment key, e.g. fig3, table3, "
                       "ablation_memcpy_flush (a wrong one lists them all)")
    p_fig.add_argument("--chart", action="store_true",
                       help="render as grouped bars instead of a table")
    _add_machine_args(p_fig)
    # None: the table's own default size, and a size it cannot take is
    # refused only when asked for.
    p_fig.set_defaults(func=cmd_figure, size=None)

    p_data = sub.add_parser("dataset", help="export a synthetic dataset")
    p_data.add_argument("benchmark", type=_benchmark)
    p_data.add_argument("--out", default="datasets")
    _add_machine_args(p_data, machine=False)
    p_data.set_defaults(func=cmd_dataset)

    p_trace = sub.add_parser("trace", help="capture a kernel trace file")
    p_trace.add_argument("benchmark", type=_benchmark)
    p_trace.add_argument("--out", default="kernel.trace")
    _add_machine_args(p_trace, machine=False)
    p_trace.set_defaults(func=cmd_trace)

    p_replay = sub.add_parser("replay", help="re-simulate a trace file")
    p_replay.add_argument("trace")
    _add_machine_args(p_replay, size=False)
    p_replay.set_defaults(func=cmd_replay)

    p_serve = sub.add_parser(
        "serve", help="run the simulation service (HTTP job API)"
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=_port, default=8777,
                         help="bind port (default: 8777)")
    p_serve.add_argument(
        "--workers", type=_positive_int, default=None, metavar="N",
        help="job-queue worker slots (default: the core budget, "
             "one per available CPU)",
    )
    p_serve.add_argument(
        "--cache", default=None, metavar="DIR",
        help="content-addressed result cache directory "
             "(default: cache disabled)",
    )
    p_serve.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="per-job artifact directory (default: a temp dir)",
    )
    p_serve.add_argument(
        "--cache-max-bytes", type=_positive_int, default=None, metavar="B",
        help="evict oldest result-cache entries past this payload "
             "budget (default: unbounded)",
    )
    p_serve.add_argument(
        "--cache-max-entries", type=_positive_int, default=None,
        metavar="N",
        help="evict oldest result-cache entries past this count "
             "(default: unbounded)",
    )
    p_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    flag = _sampling_without_estimate(args)
    if flag is not None:
        print(f"{flag} requires --estimate", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except CTAMisfit as exc:
        # A machine that cannot hold one CTA of the run: one line, exit
        # 1.  Any other deadlock is a simulator fault and keeps its
        # traceback.
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
