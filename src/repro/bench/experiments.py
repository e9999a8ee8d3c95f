"""Every table and figure of the paper, plus the ablations and the
cross-GPU extension, as a runnable experiment.

Conventions:

- Each function returns a list of row dicts ready for
  :func:`repro.core.report.format_table`.  Most accept a ``config``
  (default: the RTX 3070 baseline); which of ``config``/``size`` each
  accepts is declared in :mod:`repro.bench.registry`.
- Benchmarks default to the SMALL datasets so a full figure finishes
  in seconds; pass ``size=DatasetSize.MEDIUM``/``LARGE`` to scale up.
- Per-figure benchmark subsets match the paper (Fig 2 uses SW/NW/STAR;
  Fig 7 uses NW/PairHMM; everything else runs the full suite with CDP
  variants).
- Every simulation is a :class:`~repro.core.sweep.SweepPoint` obtained
  through :func:`run_points`, which runs each distinct point once per
  process: the baseline suite that most figures read, or normalize
  against, is simulated once however many tables ask for it.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core.config_presets import (
    CACHE_SWEEP,
    CTA_SCALING,
    MEM_CONTROLLERS,
    NOC_BANDWIDTH_SWEEP,
    NOC_LATENCY_SWEEP,
    SCHEDULERS,
    TOPOLOGIES,
    baseline_config,
    scale_cta_resources,
    with_cache_sizes,
    with_controller,
    with_topology,
)
from repro.core.runner import variant_name
from repro.core.suite import BenchmarkSuite
from repro.core.sweep import (
    SweepPoint,
    point_key,
    run_sweep,
    suite_points,
    sweep_point,
)
from repro.cpu.timing import cpu_cycles
from repro.data.datasets import DatasetSize, dataset_for
from repro.isa.instructions import WARP_SIZE
from repro.kernels import benchmark_names
from repro.sim.config import (
    GPUConfig,
    a100_config,
    rtx3070_baseline,
    rtx3090_config,
)
from repro.sim.stats import RunStats

#: Every statistic a harness has read in this process, by
#: :func:`~repro.core.sweep.point_key`.  The key is the point's identity
#: only, so code that patches the simulator or the datasets must clear
#: it; and since one object serves every table sharing the point, no
#: harness may mutate a :class:`RunStats` it reads.
memo: dict[str, RunStats] = {}


def run_points(
    points: list[SweepPoint], jobs: int | None = 0
) -> dict[str, RunStats]:
    """``{point.label: RunStats}`` for ``points``, in input order.

    Points the memo lacks go to one :func:`~repro.core.sweep.run_sweep`
    call (``jobs`` as there); each distinct point runs once.
    """
    keys = [point_key(point) for point in points]
    todo: dict[str, SweepPoint] = {}
    for key, point in zip(keys, points):
        if key not in memo:
            todo.setdefault(key, point)
    if todo:
        fresh = run_sweep(list(todo.values()), jobs=jobs)
        memo.update(zip(todo, fresh.values()))
    return {point.label: memo[key] for point, key in zip(points, keys)}


def suite_variants() -> list[tuple[str, bool]]:
    """All 20 (benchmark, cdp) variants in Table III order."""
    return [(abbr, cdp) for abbr in benchmark_names() for cdp in (False, True)]


def _suite(config: GPUConfig, size: DatasetSize) -> dict[str, RunStats]:
    """The 20-variant suite at ``config``, keyed by variant name."""
    return run_points(suite_points(size=size, config=config))


def _per_variant(config, size, columns) -> list[dict]:
    """One row per suite variant: its name, then ``columns(stats)``."""
    return [
        {"benchmark": name, **columns(stats)}
        for name, stats in _suite(config or baseline_config(), size).items()
    ]


def _variant_grid(
    axis, make_config, key, size: DatasetSize, jobs: int | None
) -> dict[str, RunStats]:
    """Every suite variant at every ``axis`` value; labels are
    ``"NAME|key(value)"`` and ``make_config(value)`` is the machine."""
    return run_points([
        sweep_point(f"{variant_name(abbr, cdp)}|{key(value)}", abbr,
                    make_config(value), cdp=cdp, size=size)
        for abbr, cdp in suite_variants()
        for value in axis
    ], jobs=jobs)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1_configs() -> list[dict]:
    """Table I: the hardware configuration space (baseline bolded)."""
    from repro.core import config_presets as presets

    base = baseline_config()
    return [
        {"configuration": "Shader Cores", "baseline": base.num_sms,
         "sweep": [base.num_sms]},
        {"configuration": "Warp Size", "baseline": WARP_SIZE,
         "sweep": [WARP_SIZE]},
        {"configuration": "Registers / Core",
         "baseline": base.registers_per_sm, "sweep": presets.REGISTER_SWEEP},
        {"configuration": "CTAs / Core", "baseline": base.max_ctas_per_sm,
         "sweep": presets.CTA_SWEEP},
        {"configuration": "Threads / Core",
         "baseline": base.max_threads_per_sm, "sweep": presets.THREAD_SWEEP},
        {"configuration": "Shared Memory / Core (KB)",
         "baseline": base.shared_mem_per_sm // 1024,
         "sweep": presets.SHARED_MEM_SWEEP_KB},
        {"configuration": "L1 Cache", "baseline": base.l1.size_bytes,
         "sweep": [l1 for l1, _ in CACHE_SWEEP]},
        {"configuration": "L2 Cache", "baseline": base.l2.size_bytes,
         "sweep": [l2 for _, l2 in CACHE_SWEEP]},
        {"configuration": "Memory Controller",
         "baseline": base.dram.controller, "sweep": MEM_CONTROLLERS},
        {"configuration": "Scheduler", "baseline": base.scheduler,
         "sweep": SCHEDULERS},
    ]


def table2_configs() -> list[dict]:
    """Table II: the interconnect configuration space."""
    base = baseline_config()
    return [
        {"configuration": "Topology", "baseline": base.noc.topology,
         "sweep": TOPOLOGIES},
        {"configuration": "Routing Mechanism", "baseline": "per topology",
         "sweep": ["dimension order", "destination tag",
                   "nearest common ancestor"]},
        {"configuration": "Routing delay", "baseline": base.noc.router_delay,
         "sweep": NOC_LATENCY_SWEEP},
        {"configuration": "Flit size (Bytes)",
         "baseline": base.noc.channel_bytes, "sweep": NOC_BANDWIDTH_SWEEP},
    ]


def table3_properties(config: GPUConfig | None = None) -> list[dict]:
    """Table III: benchmark properties plus the model's CTA/core."""
    suite = BenchmarkSuite(config or baseline_config())
    return [asdict(suite.properties(abbr)) for abbr in suite.names()]


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

def fig2_cpu_gpu(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 2: CPU vs GPU vs GPU+CDP for SW, NW, STAR (normalized to CPU)."""
    benchmarks = ["SW", "NW", "STAR"]
    stats = run_points(suite_points(
        benchmarks, size=size, config=config or baseline_config()
    ))
    rows = []
    for abbr in benchmarks:
        cpu = cpu_cycles(abbr, dataset_for(abbr, size))
        gpu = stats[abbr].device_time()
        gpu_cdp = stats[variant_name(abbr, True)].device_time()
        rows.append({
            "benchmark": abbr,
            "cpu_cycles": cpu,
            "gpu_cycles": gpu,
            "gpu_cdp_cycles": gpu_cdp,
            "gpu_norm": gpu / cpu,
            "gpu_cdp_norm": gpu_cdp / cpu,
            "gpu_speedup": cpu / gpu,
            "gpu_cdp_speedup": cpu / gpu_cdp,
        })
    return rows


def fig3_cdp(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 3: kernel execution time, CDP vs non-CDP, per benchmark."""
    stats = _suite(config or baseline_config(), size)
    rows = []
    for abbr in benchmark_names():
        base = stats[abbr].device_time()
        cdp = stats[variant_name(abbr, True)].device_time()
        rows.append({
            "benchmark": abbr,
            "noncdp_cycles": base,
            "cdp_cycles": cdp,
            "improvement": 1.0 - cdp / base,
        })
    return rows


def _kernel_pci(stats: RunStats) -> dict:
    launches = stats.kernel_launches + stats.device_launches
    return {
        "kernel_count": launches,
        "pci_count": stats.memcpy_calls,
        "kernel_cycles": stats.kernel_cycles,
        "pci_cycles": stats.pci_cycles,
        "avg_kernel_cycles": stats.kernel_cycles / max(1, launches),
        "avg_pci_cycles": stats.pci_cycles / max(1, stats.memcpy_calls),
    }


def fig4_kernel_pci(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 4: kernel/PCI call counts and total/average times."""
    return _per_variant(config, size, _kernel_pci)


def fig5_stalls(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 5: pipeline-stall breakdown per benchmark."""
    return _per_variant(config, size, RunStats.stall_breakdown)


def fig6_sram(config: GPUConfig | None = None) -> list[dict]:
    """Fig 6: register / shared / constant utilization per benchmark."""
    suite = BenchmarkSuite(config or baseline_config())
    rows = []
    for abbr in suite.names():
        report = suite.occupancy(abbr)
        rows.append({
            "benchmark": abbr,
            "registers": report.register_utilization,
            "shared_memory": report.shared_utilization,
            "constant": report.constant_utilization,
            "ctas_per_core": report.ctas_per_sm,
            "limiter": report.limiter,
        })
    return rows


#: The Fig 7 arms: each application as built (shared memory on) and its
#: no-shared-memory ablation.
_SMEM_ARMS = (("with", {}), ("without", {"use_shared": False}))


def fig7_shared_memory(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 7: NW and PairHMM with vs without shared memory."""
    config = config or baseline_config()
    benchmarks = ("NW", "PairHMM")
    stats = run_points([
        sweep_point(f"{abbr}|{arm}", abbr, config, size=size, **options)
        for abbr in benchmarks
        for arm, options in _SMEM_ARMS
    ])
    rows = []
    for abbr in benchmarks:
        with_smem = stats[f"{abbr}|with"].device_time()
        without = stats[f"{abbr}|without"].device_time()
        rows.append({
            "benchmark": abbr,
            "with_shared_cycles": with_smem,
            "without_shared_cycles": without,
            "slowdown_without": without / with_smem,
        })
    return rows


def fig8_instruction_mix(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 8: dynamic instruction-class distribution."""
    return _per_variant(config, size, RunStats.op_fractions)


def fig9_memory_mix(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 9: memory-space distribution of memory instructions."""
    return _per_variant(config, size, RunStats.mem_fractions)


def fig10_warp_occupancy(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 10: warp-occupancy histogram (W1-4 .. W29-32)."""
    return _per_variant(config, size, RunStats.occupancy_fractions)


def fig11_cta_sweep(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    num_sms: int = 4,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 11: speedup when CTA/core (and linked resources) scale.

    Resident-CTA capacity only binds when grids oversubscribe the
    machine, so this sweep runs on a small ``num_sms`` device (the
    paper's 32K-scale inputs oversubscribe all 78 SMs; the SMALL
    datasets would leave them idle).  PairHMM uses the MEDIUM batch for
    the same reason — its CTA demand must exceed baseline capacity for
    the paper's PairHMM-CDP scaling trend to be visible.
    """
    config = (config or baseline_config()).with_(num_sms=num_sms)
    stats = run_points([
        sweep_point(
            f"{variant_name(abbr, cdp)}|x{factor}",
            abbr,
            scale_cta_resources(config, factor),
            cdp=cdp,
            size=DatasetSize.MEDIUM if abbr == "PairHMM" else size,
        )
        for abbr, cdp in suite_variants()
        for factor in CTA_SCALING
    ], jobs=jobs)
    rows = []
    for abbr, cdp in suite_variants():
        name = variant_name(abbr, cdp)
        row = {"benchmark": name}
        for factor in CTA_SCALING:
            row[f"x{factor}"] = stats[f"{name}|x{factor}"].device_time()
        base_time = row["x1.0"]
        for factor in CTA_SCALING:
            row[f"speedup_x{factor}"] = base_time / row[f"x{factor}"]
        rows.append(row)
    return rows


def cache_sweep_results(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Shared sweep behind Figs 12-14: one row per (variant, cache pair)."""
    config = config or baseline_config()
    results = _variant_grid(
        CACHE_SWEEP,
        lambda pair: with_cache_sizes(config, *pair),
        lambda pair: f"l1={pair[0]}|l2={pair[1]}",
        size, jobs,
    )
    rows = []
    for abbr, cdp in suite_variants():
        name = variant_name(abbr, cdp)
        for l1_bytes, l2_bytes in CACHE_SWEEP:
            stats = results[f"{name}|l1={l1_bytes}|l2={l2_bytes}"]
            rows.append({
                "benchmark": name,
                "l1_bytes": l1_bytes,
                "l2_bytes": l2_bytes,
                "cycles": stats.device_time(),
                "ipc": stats.ipc,
                "l1_miss_rate": stats.l1.miss_rate,
                "l2_miss_rate": stats.l2.miss_rate,
            })
    return rows


def _baseline_key(row: dict) -> bool:
    return row["l1_bytes"] == 128 * 1024 and row["l2_bytes"] == 4 * 1024 * 1024


def fig12_cache_speedup(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 12: IPC speedup per cache configuration vs the baseline."""
    sweep = cache_sweep_results(config, size, jobs)
    baselines = {
        row["benchmark"]: row["ipc"] for row in sweep if _baseline_key(row)
    }
    return [
        {
            "benchmark": row["benchmark"],
            "l1_bytes": row["l1_bytes"],
            "l2_bytes": row["l2_bytes"],
            "speedup": row["ipc"] / baselines[row["benchmark"]]
            if baselines[row["benchmark"]]
            else 0.0,
        }
        for row in sweep
    ]


def fig13_l1_miss(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 13: L1 miss rate per cache configuration."""
    return [
        {k: row[k] for k in ("benchmark", "l1_bytes", "l2_bytes", "l1_miss_rate")}
        for row in cache_sweep_results(config, size, jobs)
    ]


def fig14_l2_miss(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 14: L2 miss rate per cache configuration."""
    return [
        {k: row[k] for k in ("benchmark", "l1_bytes", "l2_bytes", "l2_miss_rate")}
        for row in cache_sweep_results(config, size, jobs)
    ]


def fig15_perfect_memory(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 15: speedup with a zero-latency memory system."""
    config = config or baseline_config()
    machines = {"base": config,
                "perfect": config.with_(perfect_memory=True)}
    results = _variant_grid(machines, machines.get, str, size, jobs)
    rows = []
    for abbr, cdp in suite_variants():
        name = variant_name(abbr, cdp)
        base = results[f"{name}|base"].device_time()
        perfect = results[f"{name}|perfect"].device_time()
        rows.append({
            "benchmark": name,
            "baseline_cycles": base,
            "perfect_cycles": perfect,
            "speedup": base / perfect,
        })
    return rows


def _controller_sweep(config, size, jobs) -> dict[str, RunStats]:
    """The Figs 16/17 grid: every variant under every controller."""
    config = config or baseline_config()
    return _variant_grid(
        MEM_CONTROLLERS,
        lambda controller: with_controller(config, controller),
        str, size, jobs,
    )


def fig16_mem_controller(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 16: FR-FCFS vs FIFO vs OoO-128 memory controllers."""
    results = _controller_sweep(config, size, jobs)
    rows = []
    for abbr, cdp in suite_variants():
        name = variant_name(abbr, cdp)
        row = {"benchmark": name}
        times = {
            controller: results[f"{name}|{controller}"].device_time()
            for controller in MEM_CONTROLLERS
        }
        row.update(times)
        for controller in MEM_CONTROLLERS:
            row[f"norm_{controller}"] = times["frfcfs"] / times[controller]
        rows.append(row)
    return rows


def fig17_dram_efficiency(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 17: DRAM efficiency per benchmark and controller."""
    results = _controller_sweep(config, size, jobs)
    rows = []
    for abbr, cdp in suite_variants():
        name = variant_name(abbr, cdp)
        row = {"benchmark": name}
        for controller in MEM_CONTROLLERS:
            row[controller] = results[f"{name}|{controller}"].dram.efficiency
        rows.append(row)
    return rows


def fig18_dram_utilization(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 18: fraction of execution time the DRAM pins move data."""
    return _per_variant(
        config, size, lambda stats: {"utilization": stats.dram_utilization()}
    )


def _axis_sweep(
    size: DatasetSize,
    jobs: int | None,
    axis: list,
    make_config,
    key,
    norm_value,
) -> list[dict]:
    """One-knob sweeps behind Figs 19-22: variant rows, axis columns.

    ``make_config(value)`` builds the config for one axis value,
    ``key(value)`` names its column, and ``norm_value`` is the axis
    value every other one is normalized against.
    """
    results = _variant_grid(axis, make_config, key, size, jobs)
    rows = []
    for abbr, cdp in suite_variants():
        name = variant_name(abbr, cdp)
        row = {"benchmark": name}
        times = {
            value: results[f"{name}|{key(value)}"].device_time()
            for value in axis
        }
        for value in axis:
            row[key(value)] = times[value]
        for value in axis:
            row[f"norm_{key(value)}"] = times[norm_value] / times[value]
        rows.append(row)
    return rows


def fig19_scheduler(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 19: warp-scheduler sensitivity (normalized to LRR)."""
    config = config or baseline_config()
    return _axis_sweep(
        size, jobs, SCHEDULERS,
        lambda sched: config.with_(scheduler=sched),
        lambda sched: sched,
        "lrr",
    )


def fig20_topology(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 20: interconnect topology (normalized to the local crossbar)."""
    config = config or baseline_config()
    return _axis_sweep(
        size, jobs, TOPOLOGIES,
        lambda topology: with_topology(config, topology),
        lambda topology: topology,
        "xbar",
    )


def fig21_noc_latency(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 21: router latency +0/4/8/16 cycles on a mesh."""
    config = config or baseline_config()
    return _axis_sweep(
        size, jobs, NOC_LATENCY_SWEEP,
        lambda delay: with_topology(config, "mesh", router_delay=delay),
        lambda delay: f"delay{delay}",
        0,
    )


def fig22_noc_bandwidth(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 22: channel width 8/16/32/40B on a mesh (normalized to 40B)."""
    config = config or baseline_config()
    return _axis_sweep(
        size, jobs, NOC_BANDWIDTH_SWEEP,
        lambda width: with_topology(config, "mesh", channel_bytes=width),
        lambda width: f"bw{width}",
        40,
    )


# ---------------------------------------------------------------------------
# Ablations and extensions (beyond the paper's figures)
# ---------------------------------------------------------------------------

#: The ablations run on a 16-SM machine: each isolates one mechanism,
#: and the small machine keeps every table to about a second.
ABLATION_CONFIG = GPUConfig(num_sms=16)


def ablation_memcpy_flush() -> list[dict]:
    """Inter-kernel cache flushing on vs off: the locality loss the paper
    blames for cache-capacity insensitivity (Sec IV-G)."""
    # STAR's host program interleaves memcpys with its per-chunk
    # kernels, so its constant-memory scoring tables are the clearest
    # victim of the flush-per-copy behaviour.
    flushes = (True, False)
    stats = run_points([
        sweep_point(str(flush), "STAR",
                    ABLATION_CONFIG.with_(flush_on_memcpy=flush))
        for flush in flushes
    ])
    return [
        {
            "flush_on_memcpy": flush,
            "const_miss_rate": round(stats[str(flush)].const_cache.miss_rate, 3),
            "l2_miss_rate": round(stats[str(flush)].l2.miss_rate, 3),
            "device_time": stats[str(flush)].device_time(),
        }
        for flush in flushes
    ]


def ablation_port_serialization() -> list[dict]:
    """L1 port serialization on vs off: the Fig 7 no-shared-memory
    penalty depends on paying per transaction."""
    # NW's naive port issues 32-transaction column-strided accesses
    # that *hit* the L1 after first touch, so its Fig 7 factor is a
    # direct read-out of the per-transaction port cost.  (PairHMM's
    # factor is DRAM-bound and insensitive to this knob.)
    modes = (True, False)
    stats = run_points([
        sweep_point(f"{serialize}|{arm}", "NW",
                    ABLATION_CONFIG.with_(l1_port_serialization=serialize),
                    **options)
        for serialize in modes
        for arm, options in _SMEM_ARMS
    ])
    return [
        {
            "port_serialization": serialize,
            "fig7_factor": round(
                stats[f"{serialize}|without"].device_time()
                / stats[f"{serialize}|with"].device_time(), 2
            ),
        }
        for serialize in modes
    ]


def ablation_launch_overheads() -> list[dict]:
    """SW's CDP gain over host x device launch-overhead magnitudes: the
    two calibration constants the Fig 3 CDP results hinge on."""
    grid = [(host, cdp) for host in (500, 2000, 8000)
            for cdp in (300, 600, 2400)]
    stats = run_points([
        sweep_point(f"{host}|{cdp_cycles}|{cdp}", "SW",
                    ABLATION_CONFIG.with_(host_launch_cycles=host,
                                          cdp_launch_cycles=cdp_cycles),
                    cdp=cdp)
        for host, cdp_cycles in grid
        for cdp in (False, True)
    ])
    rows = []
    for host, cdp_cycles in grid:
        base = stats[f"{host}|{cdp_cycles}|False"].device_time()
        cdp = stats[f"{host}|{cdp_cycles}|True"].device_time()
        rows.append({
            "host_launch": host,
            "cdp_launch": cdp_cycles,
            "noncdp": base,
            "cdp": cdp,
            "cdp_gain": round(1 - cdp / base, 3),
        })
    return rows


def ablation_cdp_input_scaling() -> list[dict]:
    """SW's CDP gain at small vs medium input with expensive device
    launches: bigger inputs amortize the CDP overheads (Sec II-B)."""
    sizes = (DatasetSize.SMALL, DatasetSize.MEDIUM)
    cfg = ABLATION_CONFIG.with_(cdp_launch_cycles=2400)
    stats = {
        size: run_points(suite_points(["SW"], size=size, config=cfg))
        for size in sizes
    }
    return [
        {
            "input": size.value,
            "cdp_gain": round(1 - stats[size]["SW-CDP"].device_time()
                              / stats[size]["SW"].device_time(), 3),
        }
        for size in sizes
    ]


def extension_cross_gpu() -> list[dict]:
    """A benchmark subset on the RTX 3070 baseline, an RTX 3090-class
    and an A100-class preset (the architecture-research use case)."""
    presets = {
        "rtx3070": rtx3070_baseline(),
        "rtx3090": rtx3090_config(),
        "a100": a100_config(),
    }
    benchmarks = ("SW", "GKSW", "PairHMM", "NvB")
    stats = run_points([
        sweep_point(f"{abbr}|{name}", abbr, config)
        for abbr in benchmarks
        for name, config in presets.items()
    ])
    rows = []
    for abbr in benchmarks:
        row = {"benchmark": abbr}
        for name in presets:
            row[name] = stats[f"{abbr}|{name}"].device_time()
        row["a100_speedup"] = round(row["rtx3070"] / row["a100"], 3)
        rows.append(row)
    return rows
