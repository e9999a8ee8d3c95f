"""The benchmark-suite facade."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.runner import run_benchmark, run_suite, variant_name
from repro.data.datasets import DatasetSize
from repro.kernels import BENCHMARKS, benchmark_names, build_application
from repro.sim.config import GPUConfig
from repro.sim.occupancy import OccupancyReport, occupancy_report
from repro.sim.stats import RunStats


@dataclass(frozen=True)
class BenchmarkProperties:
    """Table III row plus the model's occupancy analysis."""

    abbr: str
    full_name: str
    input_description: str
    grid: tuple[int, int, int]
    cta: tuple[int, int, int]
    uses_shared: bool
    uses_constant: bool
    cta_per_core_paper: int
    cta_per_core_model: int
    limiter: str


class BenchmarkSuite:
    """All ten benchmarks behind one object.

    >>> suite = BenchmarkSuite()
    >>> suite.names()
    ['SW', 'NW', ..., 'NvB']
    """

    def __init__(self, config: GPUConfig | None = None,
                 size: DatasetSize = DatasetSize.SMALL):
        self.config = config or GPUConfig()
        self.size = size

    def names(self) -> list[str]:
        """Benchmark abbreviations in Table III order."""
        return benchmark_names()

    def occupancy(self, abbr: str) -> OccupancyReport:
        """Occupancy of the application's *main* (non-CDP) kernel on
        the suite's config."""
        app = build_application(abbr, size=self.size)
        kernel = getattr(app, "kernel", None)
        if kernel is None:
            # Applications building kernels per launch expose the main
            # kernel through a probe launch of the host program.
            kernel = next(
                (op.launch.kernel for op in app.host_program()
                 if hasattr(op, "launch")),
                None,
            )
        return occupancy_report(self.config, kernel)

    def properties(self, abbr: str) -> BenchmarkProperties:
        """Table III properties + occupancy (:meth:`occupancy`) for one
        benchmark."""
        info = BENCHMARKS[abbr]
        report = self.occupancy(abbr)
        return BenchmarkProperties(
            abbr=info.abbr,
            full_name=info.full_name,
            input_description=info.input_description,
            grid=info.grid,
            cta=info.cta,
            uses_shared=info.uses_shared,
            uses_constant=info.uses_constant,
            cta_per_core_paper=info.cta_per_core_paper,
            cta_per_core_model=report.ctas_per_sm,
            limiter=report.limiter,
        )

    def run(self, abbr: str, cdp: bool = False, **options) -> RunStats:
        """Run one benchmark with the suite's config and size."""
        return run_benchmark(
            abbr, cdp=cdp, size=self.size, config=self.config, **options
        )

    def run_all(
        self,
        benchmarks: list[str] | None = None,
        cdp_variants: bool = True,
        jobs: int | None = 0,
    ) -> dict[str, RunStats]:
        """Run every benchmark (and CDP variant); keys are variant names.

        ``jobs`` is forwarded to :func:`repro.core.runner.run_suite`:
        ``0`` (the default) runs in-process, ``N`` fans out over ``N``
        worker processes, ``None`` over one per CPU.
        """
        return run_suite(
            benchmarks=benchmarks,
            cdp_variants=cdp_variants,
            size=self.size,
            config=self.config,
            jobs=jobs,
        )

    @staticmethod
    def variant_name(abbr: str, cdp: bool) -> str:
        return variant_name(abbr, cdp)
