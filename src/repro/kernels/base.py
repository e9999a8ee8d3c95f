"""Shared infrastructure for benchmark kernels.

Address-space layout, the benchmark descriptor (Table III row), and the
application base class every benchmark derives from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.launch import Application

#: Line-index bases partitioning the flat device address space.  Lines
#: are 128 bytes, so these correspond to 128MB-aligned regions — far
#: larger than any workload, guaranteeing regions never collide.
CONST_BASE = 0
GLOBAL_BASE = 1 << 20
LOCAL_BASE = 1 << 24
TEX_BASE = 1 << 28


def local_line(global_warp: int, lines_per_warp: int, offset: int) -> int:
    """Local-memory line for a warp-uniform per-thread array access.

    Local memory is lane-interleaved by the hardware, so when all 32
    lanes touch element ``offset`` of their private array the access
    coalesces into one line per 32 words.  Each warp owns a private
    window of ``lines_per_warp`` lines.
    """
    return LOCAL_BASE + global_warp * lines_per_warp + (offset % lines_per_warp)


@dataclass(frozen=True)
class BenchmarkInfo:
    """One Table III row."""

    abbr: str
    full_name: str
    input_description: str
    grid: tuple[int, int, int]
    cta: tuple[int, int, int]
    uses_shared: bool
    uses_constant: bool
    cta_per_core_paper: int  # the value the paper reports

    @property
    def cta_threads(self) -> int:
        x, y, z = self.cta
        return x * y * z

    @property
    def num_ctas(self) -> int:
        x, y, z = self.grid
        return x * y * z


#: Table III, verbatim from the paper.
BENCHMARKS: dict[str, BenchmarkInfo] = {
    info.abbr: info
    for info in [
        BenchmarkInfo("SW", "Smith-Waterman", "32K bases with 4 types (A/C/G/T)",
                      (3, 1, 1), (64, 1, 1), False, True, 30),
        BenchmarkInfo("NW", "Needleman-Wunsch", "32K bases with 4 types (A/C/G/T)",
                      (500, 1, 1), (128, 1, 1), True, True, 6),
        BenchmarkInfo("STAR", "Center Star Algorithm", "protein.txt",
                      (12, 1, 1), (256, 1, 1), False, True, 4),
        BenchmarkInfo("GG", "GASAL2 GLOBAL", "query_batch.fasta",
                      (40, 1, 1), (128, 1, 1), False, True, 12),
        BenchmarkInfo("GL", "GASAL2 LOCAL", "query_batch.fasta",
                      (40, 1, 1), (128, 1, 1), False, True, 12),
        BenchmarkInfo("GKSW", "GASAL2 KSW", "query_batch.fasta",
                      (40, 1, 1), (128, 1, 1), False, True, 12),
        BenchmarkInfo("GSG", "GASAL2 SEMI-GLOBAL", "query_batch.fasta",
                      (40, 1, 1), (128, 1, 1), False, True, 12),
        BenchmarkInfo("CLUSTER", "Greedy Incremental Alignment-based",
                      "testData.fasta", (128, 1, 1), (128, 1, 1), True, True, 12),
        BenchmarkInfo("PairHMM", "Pair Hidden Markov Model",
                      "Synthetic_data(128_128)", (150, 1, 1), (128, 1, 1),
                      True, True, 10),
        BenchmarkInfo("NvB", "NVBIO", "hg19.fa, SRR493095.fastq",
                      (2048, 1, 1), (256, 1, 1), False, True, 6),
    ]
}


class GenomicsApplication(Application):
    """Base class for the ten benchmark applications.

    Subclasses set ``abbr`` and implement :meth:`host_program` (plus a
    CDP variant when ``cdp=True``) and :meth:`run_functional`, which
    executes the real algorithm and returns its result.
    """

    abbr: str = ""

    def __init__(self, workload, cdp: bool = False):
        self.workload = workload
        self.cdp = cdp
        self.name = f"{self.abbr}-CDP" if cdp else self.abbr
        # Only the CDP variants build parent kernels that launch
        # children; the plain variants never device-launch, which lets
        # the simulator run SM-local work ahead of the event order.
        self.may_device_launch = cdp

    @property
    def info(self) -> BenchmarkInfo:
        """This benchmark's Table III row."""
        return BENCHMARKS[self.abbr]

    def run_functional(self):
        """Execute the underlying algorithm on the workload."""
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.info.full_name} ({self.name})"
