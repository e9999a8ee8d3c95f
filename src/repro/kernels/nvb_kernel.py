"""NVBIO / NvBowtie benchmark (NvB).

NvBowtie runs reads through a multi-stage pipeline — seed extraction,
FM-index backward search, locate, extension, traceback, selection —
and launches each stage as its own kernel per read batch.  The kernels
are short and numerous, so the dominant cost is kernel-switch time:
Fig 5 shows "functional done" causing over 90% of NvB's stalls, and
Fig 4 shows its large launch count.

The FM-index stages perform data-dependent random lookups across the
occurrence/suffix-array structures, giving the high, size-insensitive
L1/L2 miss rates of Figs 13/14.  Loop bounds are derived from the
counters of the aligner's seeding pass over the workload
(:meth:`repro.genomics.index.ReadAligner.seed_reads`: reads, seeds,
seed searches and extension candidates from
:class:`repro.genomics.index.bowtie.AlignerStats`, plus the index's LF
steps).  That pass runs the same seed, backward-search, locate and
windowing code as a full read mapping and leaves the same counters,
but skips the DP extension no trace reads; only the counters are kept.

The CDP variant launches the per-batch stage kernels from a driver
kernel on the device (one host launch per batch instead of one per
stage).
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.genomics.index import ReadAligner
from repro.genomics.index.bowtie import AlignerStats
from repro.isa import TraceBuilder
from repro.isa.instructions import WarpInstruction
from repro.kernels.base import CONST_BASE, GLOBAL_BASE, GenomicsApplication
from repro.sim.kernel import KernelProgram, WarpContext
from repro.sim.launch import HostLaunch, HostMemcpy, KernelLaunch

#: Reads per pipeline batch.  NvBowtie streams small ring-buffer
#: batches through the pipeline, so the launch count is large and the
#: per-kernel work small — the source of its "functional done" stalls.
BATCH_READS = 4

#: Index region base (BWT + occurrence checkpoints + SA samples).
INDEX_BASE = GLOBAL_BASE + (1 << 20)


def _scatter(seed: int, index_lines: int) -> int:
    """Deterministic pseudo-random index line (splitmix-style hash)."""
    x = (seed * 0x9E3779B97F4A7C15) & (2**64 - 1)
    x ^= x >> 31
    return INDEX_BASE + x % max(1, index_lines)


class NvbStageKernel(KernelProgram):
    """One pipeline stage over one read batch.

    ``args``: ``stage`` name, ``batch`` index, ``reads`` in the batch,
    ``work`` — per-read loop bound for this stage, ``index_lines``.
    """

    def __init__(self, stage: str, cta_threads: int = 256):
        super().__init__(
            f"nvb_{stage}",
            cta_threads=cta_threads,
            regs_per_thread=40,
            smem_per_cta=0,
            const_bytes=1024,
        )
        self.stage = stage

    def trace_template(self, ctx: WarpContext):
        if self.stage in ("search", "locate", "extend"):
            # FM-index walks hash (batch, salt, warp, step) into the
            # index: genuinely data-dependent scatter, not an affine
            # relocation of any base.
            return None
        reads = ctx.args["reads"]
        my_reads = max(0, min(32, reads - ctx.global_warp * 32))
        if my_reads <= 0:
            return ("empty",), ()
        key = (my_reads, ctx.args["work"])
        batch = ctx.args["batch"]
        bases = (GLOBAL_BASE + batch * 256 + ctx.global_warp * 4,)
        return key, bases

    def warp_trace(self, ctx: WarpContext) -> Iterator[WarpInstruction]:
        b = TraceBuilder()
        reads = ctx.args["reads"]
        work = ctx.args["work"]
        batch = ctx.args["batch"]
        index_lines = ctx.args["index_lines"]
        total_warps = ctx.num_ctas * ctx.warps_per_cta
        # One thread per read: only the first ceil(reads/32) warps are
        # populated; a warp's lane count follows its read share.
        my_reads = max(0, min(32, reads - ctx.global_warp * 32))
        if my_reads <= 0 or ctx.global_warp >= total_warps:
            yield b.exit()
            return
        b.set_lanes(my_reads)

        yield b.ld_param([CONST_BASE + 136])
        yield b.ints(4)
        read_base = GLOBAL_BASE + batch * 256 + ctx.global_warp * 4
        yield b.ld_global([read_base])

        salt = ctx.args.get("salt", 0)
        if self.stage in ("search", "locate"):
            # FM-index walks: every step is two dependent random
            # lookups into the occurrence structure; each pipeline
            # stage continues the walk from where the last left off,
            # so no stage revisits another's lines.
            for step in range(work):
                key = (
                    batch * 131071
                    + salt * 524287
                    + ctx.global_warp * 8191
                    + step
                ) * 64
                # Each lane walks its own suffix-array interval, so the
                # warp's load is fully divergent, and each rank lookup
                # touches three structures (occ checkpoint, BWT chunk,
                # count table): 3 transactions per active read.
                yield b.ld_global(
                    [_scatter(key + 3 * lane + j, index_lines)
                     for lane in range(my_reads) for j in range(3)]
                )
                yield b.ld_global(
                    [_scatter(key + 96 + 3 * lane + j, index_lines)
                     for lane in range(my_reads) for j in range(3)]
                )
                yield b.ints(4)
                if step % 8 == 7:
                    yield b.branch()  # range-empty early exits diverge
        elif self.stage == "extend":
            for row in range(work):
                yield b.ld_global(
                    [_scatter(
                        batch * 31 + salt * 524287 + ctx.global_warp * 7 + row,
                        index_lines,
                    )]
                )
                yield b.ints(6)
        else:  # seed extraction / select / traceback: short scalar loops
            for step in range(work):
                yield b.ints(5)
                if step % 4 == 3:
                    yield b.ld_global([read_base + 1 + step // 4])
        yield b.st_global([read_base])
        yield b.exit()


class NvbDriverKernel(KernelProgram):
    """CDP driver: launches the batch's stage kernels on-device."""

    def __init__(self, plan: list[KernelLaunch]):
        super().__init__(
            "nvb_driver", cta_threads=32, regs_per_thread=32, const_bytes=256
        )
        self.plan = plan

    def warp_trace(self, ctx: WarpContext) -> Iterator[WarpInstruction]:
        b = TraceBuilder()
        yield b.ld_param([CONST_BASE + 137])
        for launch in self.plan:
            yield b.ints(3)
            yield b.launch(launch)
            yield b.device_sync()  # stages are sequentially dependent
        yield b.exit()


#: Seeding-pass memo: workload -> (aligner stats, index LF steps).
#: Building the FM-index and seeding every read is the expensive part
#: of a build; it only depends on the workload.
_FUNCTIONAL_CACHE: dict = {}


class NvbApplication(GenomicsApplication):
    """NvBowtie-style short-read alignment."""

    abbr = "NvB"

    def __init__(self, workload, cdp: bool = False):
        super().__init__(workload, cdp)
        self._functional = None

    def run_functional(self):
        """Map every read: ``(mappings, stats, index)``."""
        if self._functional is None:
            aligner = ReadAligner(self.workload.reference)
            mappings = aligner.map_reads(self.workload.read_sequences)
            self._functional = (mappings, aligner.stats, aligner.index)
        return self._functional

    def _seeding(self) -> tuple[AlignerStats, int]:
        """(aligner stats, index LF steps) of the seeding pass: the only
        functional state the trace reads."""
        cached = _FUNCTIONAL_CACHE.get(self.workload)
        if cached is None:
            aligner = ReadAligner(self.workload.reference)
            stats = aligner.seed_reads(self.workload.read_sequences)
            cached = (stats, aligner.index.lf_steps)
            _FUNCTIONAL_CACHE[self.workload] = cached
        return cached

    def _stage_plan(self) -> list[tuple[str, int]]:
        """(stage, per-read work) for one batch, from the seeding pass."""
        stats, lf_steps = self._seeding()
        reads = max(1, stats.reads)
        seeds_per_read = max(1, stats.seeds_extracted // reads)
        # LF steps per read across all its seeds; the occurrence table
        # is texture-cached 8 steps per fetch in NvBio's layout.
        lf_per_read = max(
            1, (stats.seed_searches * 16 + lf_steps) // reads // 24
        )
        candidates_per_read = max(1, stats.candidates_extended // reads)
        per_round = max(1, lf_per_read // 4)
        return [
            ("seed", seeds_per_read),
            ("search", per_round),
            ("search", per_round),
            ("search", per_round),
            ("search", per_round),
            ("locate", max(1, candidates_per_read // 2)),
            ("extend", max(1, candidates_per_read)),
            ("traceback", 4),
            ("select", 2),
        ]

    def host_program(self):
        workload = self.workload
        plan = self._stage_plan()
        # The functional index is built on the synthetic reference, but
        # the trace addresses the hg19-scale FM-index footprint the
        # paper's input implies (BWT + occ + SA over ~3.2 Gbp): random
        # lookups in it never fit any cache level, which is what makes
        # NvB's miss rates high and size-insensitive (Figs 13/14).
        index_lines = max(len(workload.reference) * 3 // 128, 1 << 22)
        info = self.info
        n_reads = len(workload.reads)
        read_len = len(workload.reads[0].sequence)

        yield HostMemcpy(len(workload.reference), "h2d")  # index upload
        for batch_start in range(0, n_reads, BATCH_READS):
            batch = batch_start // BATCH_READS
            batch_reads = min(BATCH_READS, n_reads - batch_start)
            yield HostMemcpy(batch_reads * read_len * 2, "h2d")
            num_ctas = min(
                info.num_ctas,
                max(1, math.ceil(batch_reads / info.cta_threads)),
            )
            launches = [
                KernelLaunch(
                    NvbStageKernel(stage, info.cta_threads),
                    num_ctas=num_ctas,
                    args={
                        "stage": stage,
                        "batch": batch,
                        "reads": batch_reads,
                        "work": work,
                        "index_lines": index_lines,
                        "salt": stage_index,
                    },
                )
                for stage_index, (stage, work) in enumerate(plan)
            ]
            if self.cdp:
                yield HostLaunch(
                    KernelLaunch(NvbDriverKernel(launches), num_ctas=1)
                )
            else:
                for launch in launches:
                    yield HostLaunch(launch)
            yield HostMemcpy(batch_reads * 16, "d2h")  # mappings out
