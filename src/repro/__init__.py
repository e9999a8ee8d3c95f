"""Genomics-GPU: a GPU genome-analysis benchmark suite, reproduced.

A from-scratch Python implementation of the ISPASS 2023 paper
"Genomics-GPU: A Benchmark Suite for GPU-accelerated Genome Analysis":
ten genomics benchmarks (with CUDA-Dynamic-Parallelism variants)
characterized on a cycle-level GPU timing model.

Layers:

- :mod:`repro.genomics` / :mod:`repro.data` — the algorithms and
  datasets (alignment, MSA, clustering, Pair-HMM, FM-index mapping).
- :mod:`repro.isa` / :mod:`repro.sim` — the warp-level ISA and the GPU
  timing model (SMs, schedulers, caches, DRAM, interconnect, CDP).
- :mod:`repro.kernels` — the ten benchmarks binding both layers.
- :mod:`repro.core` — the public run/characterize API.
- :mod:`repro.bench` — one experiment per table/figure of the paper,
  each defined once in its registry (``repro.bench.EXPERIMENTS``).

Quick start::

    from repro.core import BenchmarkSuite, baseline_config
    stats = BenchmarkSuite(baseline_config()).run("NW", cdp=True)
    print(stats.stall_breakdown())

Command line: ``python -m repro --help``.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
