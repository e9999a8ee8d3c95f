"""The ten Genomics-GPU benchmark kernels and their CDP variants.

Every benchmark binds a functional algorithm from
:mod:`repro.genomics` to a GPU trace model with the Table III launch
geometry.  :func:`build_application` is the registry entry point:

>>> app = build_application("NW", cdp=False)
>>> stats = GPUSimulator(config).run_application(app)

``run_application`` materializes a plain application's traces first
(``CachedApplication(app, template=False)``); repeated runs should
build the :class:`~repro.sim.replay.CachedApplication` once, with
templates on (``repro.core.runner.load_benchmark``), and run that.
"""

from repro.kernels.base import GenomicsApplication, BENCHMARKS
from repro.kernels.registry import build_application, benchmark_names

__all__ = [
    "GenomicsApplication",
    "BENCHMARKS",
    "build_application",
    "benchmark_names",
]
