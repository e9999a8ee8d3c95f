"""Experiments: one function per table and figure of the paper, plus
the ablations and the cross-GPU extension, and the registry that
defines each of them once.

Each ``figN_*`` / ``tableN_*`` function runs the relevant benchmarks
on the simulator and returns the rows the paper's figure reports.
:data:`EXPERIMENTS` (see :mod:`repro.bench.registry`) maps each
experiment's key to its function, its committed table in
``benchmarks/results/``, its ``repro sweep`` axis, its CI group and its
paper claims.  ``repro figure KEY`` prints a table, and
``benchmarks/test_figures.py`` checks every committed table and claim;
EXPERIMENTS.md records paper-vs-measured.  Every harness gets its
simulations from :func:`repro.bench.experiments.run_points`, so each
distinct point runs once per process.
"""

from repro.bench.experiments import (
    table1_configs,
    table2_configs,
    table3_properties,
    fig2_cpu_gpu,
    fig3_cdp,
    fig4_kernel_pci,
    fig5_stalls,
    fig6_sram,
    fig7_shared_memory,
    fig8_instruction_mix,
    fig9_memory_mix,
    fig10_warp_occupancy,
    fig11_cta_sweep,
    fig12_cache_speedup,
    fig13_l1_miss,
    fig14_l2_miss,
    fig15_perfect_memory,
    fig16_mem_controller,
    fig17_dram_efficiency,
    fig18_dram_utilization,
    fig19_scheduler,
    fig20_topology,
    fig21_noc_latency,
    fig22_noc_bandwidth,
    cache_sweep_results,
    suite_variants,
)
from repro.bench.registry import EXPERIMENTS, Claim, Experiment, sweep_axes

__all__ = [
    "table1_configs",
    "table2_configs",
    "table3_properties",
    "fig2_cpu_gpu",
    "fig3_cdp",
    "fig4_kernel_pci",
    "fig5_stalls",
    "fig6_sram",
    "fig7_shared_memory",
    "fig8_instruction_mix",
    "fig9_memory_mix",
    "fig10_warp_occupancy",
    "fig11_cta_sweep",
    "fig12_cache_speedup",
    "fig13_l1_miss",
    "fig14_l2_miss",
    "fig15_perfect_memory",
    "fig16_mem_controller",
    "fig17_dram_efficiency",
    "fig18_dram_utilization",
    "fig19_scheduler",
    "fig20_topology",
    "fig21_noc_latency",
    "fig22_noc_bandwidth",
    "cache_sweep_results",
    "suite_variants",
    "EXPERIMENTS",
    "Claim",
    "Experiment",
    "sweep_axes",
]
