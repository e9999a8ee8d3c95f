"""Public API of the Genomics-GPU suite.

Typical use:

>>> from repro.core import run_benchmark, rtx3070_baseline
>>> stats = run_benchmark("NW", cdp=True)
>>> stats.ipc, stats.stall_breakdown()

The suite object wraps the registry for bulk runs:

>>> from repro.core import BenchmarkSuite
>>> suite = BenchmarkSuite()
>>> results = suite.run_all(cdp_variants=True)
"""

from repro.core.runner import (
    estimate_benchmark,
    run_benchmark,
    run_suite,
    variant_name,
)
from repro.core.suite import BenchmarkSuite
from repro.core.sweep import (
    SweepPoint,
    TraceCache,
    default_jobs,
    run_point,
    run_sweep,
    suite_points,
    sweep_point,
)
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
)
from repro.core.report import (
    format_table,
    format_breakdown,
    format_bar_chart,
    format_estimate,
    format_interval_profile,
    format_kernel_profile,
    format_sample_note,
)
from repro.core.analysis import (
    RooflinePoint,
    machine_peaks,
    roofline_point,
    roofline_report,
)
from repro.sim.config import a100_config, rtx3070_baseline, rtx3090_config

__all__ = [
    "estimate_benchmark",
    "run_benchmark",
    "run_suite",
    "variant_name",
    "BenchmarkSuite",
    "SweepPoint",
    "TraceCache",
    "default_jobs",
    "run_point",
    "run_sweep",
    "suite_points",
    "sweep_point",
    "CACHE_SWEEP",
    "CTA_SCALING",
    "MEM_CONTROLLERS",
    "NOC_BANDWIDTH_SWEEP",
    "NOC_LATENCY_SWEEP",
    "SCHEDULERS",
    "TOPOLOGIES",
    "baseline_config",
    "scale_cta_resources",
    "format_table",
    "format_breakdown",
    "format_bar_chart",
    "format_estimate",
    "format_interval_profile",
    "format_kernel_profile",
    "format_sample_note",
    "RooflinePoint",
    "machine_peaks",
    "roofline_point",
    "roofline_report",
    "rtx3070_baseline",
    "rtx3090_config",
    "a100_config",
]
