"""Short-read mapping: synthetic genome -> reads -> FM-index alignment.

The workload the paper's NvB benchmark represents, end to end on the
functional layer, followed by a microarchitectural characterization of
the same pipeline on the GPU model.

Run:  python examples/read_mapping_pipeline.py
"""

from repro.core import baseline_config, format_table
from repro.data.synth import random_dna, sample_reads
from repro.data.workloads import ReadMappingWorkload
from repro.genomics.index import ReadAligner
from repro.genomics.sequence import Sequence
from repro.kernels import build_application
from repro.sim import GPUSimulator


def build_workload() -> ReadMappingWorkload:
    reference = Sequence("chr_toy", random_dna(30_000, seed=7))
    reads = sample_reads(reference, count=80, read_length=100,
                         seed=8, error_rate=0.01)
    return ReadMappingWorkload(reference, tuple(reads))


def functional_mapping(workload: ReadMappingWorkload) -> None:
    aligner = ReadAligner(workload.reference)
    rows = []
    correct = mapped = 0
    for record in workload.reads:
        truth = dict(
            field.split("=")
            for field in record.sequence.description.split()
        )
        mapping = aligner.map_read(record.sequence)
        if mapping is None:
            continue
        mapped += 1
        hit = abs(mapping.position - int(truth["pos"])) <= 3
        correct += hit
        if len(rows) < 8:
            rows.append({
                "read": mapping.read_name,
                "pos": mapping.position,
                "true_pos": int(truth["pos"]),
                "strand": mapping.strand,
                "mapq": mapping.mapq,
                "cigar": mapping.cigar,
            })

    print("First mappings:")
    print(format_table(rows))
    total = len(workload.reads)
    print(f"\nmapped {mapped}/{total} reads, "
          f"{correct}/{mapped} at the true locus")
    print(f"seed searches: {aligner.stats.seed_searches}, "
          f"extensions: {aligner.stats.candidates_extended}")


def simulate_nvb(workload: ReadMappingWorkload) -> None:
    app = build_application("NvB", workload=workload)
    stats = GPUSimulator(baseline_config(num_sms=16)).run_application(app)
    print(f"\nSimulated NvB on this workload: "
          f"{stats.kernel_launches} kernel launches, "
          f"{stats.memcpy_calls} memcpys")
    breakdown = stats.stall_breakdown()
    print(f"functional-done stalls: "
          f"{100 * breakdown.get('functional_done', 0):.0f}% "
          "(the paper's NvB signature)")
    print(f"L2 miss rate: {stats.l2.miss_rate:.2f} "
          "(random FM-index lookups)")


if __name__ == "__main__":
    workload = build_workload()
    functional_mapping(workload)
    simulate_nvb(workload)
