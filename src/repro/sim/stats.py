"""Run statistics: everything the paper's figures are drawn from."""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field

from repro.sim.cache import CacheStats
from repro.sim.dram import DRAMStats
from repro.sim.interconnect.network import NetworkStats


class StallReason(enum.Enum):
    """Why an SM issue slot went unused (Fig 5 categories)."""

    MEMORY = "long_memory_latency"
    CONTROL = "control_hazard"
    SYNC = "synchronization"
    IDLE = "pipeline_idle"
    FUNCTIONAL_DONE = "functional_done"

    # Members are singletons, so the identity hash is equivalent to the
    # default (Python-level, name-based) enum hash — and C-fast.  The
    # SM cores key their per-reason counters on these members in the
    # issue loop's hottest path.
    __hash__ = object.__hash__


#: Warp-occupancy buckets: W1-4, W5-8, ..., W29-32 (Fig 10).
OCCUPANCY_BUCKETS = ["W1-4", "W5-8", "W9-12", "W13-16", "W17-20",
                     "W21-24", "W25-28", "W29-32"]


def occupancy_bucket(active_lanes: int) -> str:
    """Bucket label for an issued warp's active-lane count."""
    if not 1 <= active_lanes <= 32:
        raise ValueError("active lanes must be in [1, 32]")
    return OCCUPANCY_BUCKETS[(active_lanes - 1) // 4]


@dataclass
class RunStats:
    """Counters for one application (or kernel) execution."""

    cycles: int = 0
    instructions: int = 0
    #: dynamic instruction count by OpClass value (Fig 8)
    op_mix: dict = field(default_factory=dict)
    #: memory instruction count by MemSpace value (Fig 9)
    mem_mix: dict = field(default_factory=dict)
    #: issued-warp histogram by occupancy bucket (Fig 10)
    warp_occupancy: dict = field(
        default_factory=lambda: {b: 0 for b in OCCUPANCY_BUCKETS}
    )
    #: unused issue-slot cycles by StallReason value (Fig 5)
    stalls: dict = field(default_factory=dict)

    l1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)
    const_cache: CacheStats = field(default_factory=CacheStats)
    dram: DRAMStats = field(default_factory=DRAMStats)
    noc: NetworkStats = field(default_factory=NetworkStats)

    #: host-side activity (Fig 4)
    kernel_launches: int = 0
    memcpy_calls: int = 0
    kernel_cycles: int = 0
    pci_cycles: int = 0
    #: host driver/runtime setup cycles (per-launch overhead)
    launch_overhead_cycles: int = 0

    #: device-side launches (CDP)
    device_launches: int = 0

    #: per-grid execution records, in completion order: dicts with
    #: ``kernel``, ``start``, ``end``, ``ctas``, ``origin``
    #: ("host" | "device") — the nvprof-style timeline Fig 4 is built
    #: from (see :func:`repro.core.report.format_kernel_profile`)
    kernel_timeline: list = field(default_factory=list)

    #: dynamic instructions issued per SM (load-balance diagnostics)
    sm_instructions: dict = field(default_factory=dict)

    #: time-resolved telemetry summary (``{"meta", "rows", "events"}``,
    #: see :meth:`repro.sim.telemetry.Telemetry.summary`) when the run
    #: was sampled (``GPUConfig.telemetry_interval > 0``), else ``None``
    telemetry: dict | None = None

    # -- recording helpers -------------------------------------------------
    def add_stall(self, reason: StallReason, cycles: int) -> None:
        if cycles <= 0:
            return
        key = reason._value_
        stalls = self.stalls
        stalls[key] = stalls.get(key, 0) + cycles

    # -- derived metrics ----------------------------------------------------
    @property
    def ipc(self) -> float:
        """Instructions per cycle over the whole device run."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def total_stall_cycles(self) -> int:
        return sum(self.stalls.values())

    def stall_breakdown(self) -> dict:
        """Fractions per stall reason (empty dict if no stalls)."""
        total = self.total_stall_cycles
        if total == 0:
            return {}
        return {k: v / total for k, v in sorted(self.stalls.items())}

    def op_fractions(self) -> dict:
        """Fig 8: fraction of dynamic instructions per class."""
        if self.instructions == 0:
            return {}
        return {
            k: v / self.instructions for k, v in sorted(self.op_mix.items())
        }

    def mem_fractions(self) -> dict:
        """Fig 9: fraction of memory transactions per space."""
        total = sum(self.mem_mix.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in sorted(self.mem_mix.items())}

    def occupancy_fractions(self) -> dict:
        """Fig 10: fraction of issued warps per occupancy bucket."""
        total = sum(self.warp_occupancy.values())
        if total == 0:
            return {b: 0.0 for b in OCCUPANCY_BUCKETS}
        return {b: n / total for b, n in self.warp_occupancy.items()}

    def dram_utilization(self) -> float:
        """Fig 18: data-pin cycles / total execution cycles."""
        if self.cycles == 0:
            return 0.0
        return min(1.0, self.dram.data_cycles / self.cycles)

    def device_time(self) -> int:
        """Kernel-side execution time: kernels plus launch overheads.

        This is the "kernel execution time" metric Fig 3 compares for
        CDP vs non-CDP: the CDP benefit of removing host launch
        round-trips appears here.
        """
        return self.kernel_cycles + self.launch_overhead_cycles

    def total_time(self) -> int:
        """End-to-end host cycles (kernels + launches + PCI transfers)."""
        return self.device_time() + self.pci_cycles

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe payload; :func:`stats_from_dict` round-trips it.

        The round trip is bit-exact: every counter is an int, every
        rate is recomputed from counters, and ``json.dumps`` preserves
        Python floats exactly (repr round-trip).  ``sm_instructions``
        keys go through ``str`` because JSON objects cannot have int
        keys — ``stats_from_dict`` converts them back.
        """
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "op_mix": dict(self.op_mix),
            "mem_mix": dict(self.mem_mix),
            "warp_occupancy": dict(self.warp_occupancy),
            "stalls": dict(self.stalls),
            "l1": asdict(self.l1),
            "l2": asdict(self.l2),
            "const_cache": asdict(self.const_cache),
            "dram": asdict(self.dram),
            "noc": asdict(self.noc),
            "kernel_launches": self.kernel_launches,
            "memcpy_calls": self.memcpy_calls,
            "kernel_cycles": self.kernel_cycles,
            "pci_cycles": self.pci_cycles,
            "launch_overhead_cycles": self.launch_overhead_cycles,
            "device_launches": self.device_launches,
            "kernel_timeline": [dict(rec) for rec in self.kernel_timeline],
            "sm_instructions": {
                str(sm): n for sm, n in self.sm_instructions.items()
            },
            "telemetry": self.telemetry,
        }

    def _restore(self, data: dict) -> None:
        """Fill this instance from a :meth:`to_dict` payload."""
        self.cycles = data["cycles"]
        self.instructions = data["instructions"]
        self.op_mix = dict(data["op_mix"])
        self.mem_mix = dict(data["mem_mix"])
        self.warp_occupancy = dict(data["warp_occupancy"])
        self.stalls = dict(data["stalls"])
        self.l1 = CacheStats(**data["l1"])
        self.l2 = CacheStats(**data["l2"])
        self.const_cache = CacheStats(**data["const_cache"])
        self.dram = DRAMStats(**data["dram"])
        self.noc = NetworkStats(**data["noc"])
        self.kernel_launches = data["kernel_launches"]
        self.memcpy_calls = data["memcpy_calls"]
        self.kernel_cycles = data["kernel_cycles"]
        self.pci_cycles = data["pci_cycles"]
        self.launch_overhead_cycles = data["launch_overhead_cycles"]
        self.device_launches = data["device_launches"]
        self.kernel_timeline = [dict(rec) for rec in data["kernel_timeline"]]
        self.sm_instructions = {
            int(sm): n for sm, n in data["sm_instructions"].items()
        }
        self.telemetry = data["telemetry"]

    def merge(self, other: "RunStats") -> None:
        """Accumulate another run's counters into this one."""
        self.cycles += other.cycles
        self.instructions += other.instructions
        for key, value in other.op_mix.items():
            self.op_mix[key] = self.op_mix.get(key, 0) + value
        for key, value in other.mem_mix.items():
            self.mem_mix[key] = self.mem_mix.get(key, 0) + value
        for key, value in other.warp_occupancy.items():
            self.warp_occupancy[key] += value
        for key, value in other.stalls.items():
            self.stalls[key] = self.stalls.get(key, 0) + value
        self.l1.merge(other.l1)
        self.l2.merge(other.l2)
        self.const_cache.merge(other.const_cache)
        self.dram.merge(other.dram)
        self.noc.merge(other.noc)
        self.kernel_launches += other.kernel_launches
        self.memcpy_calls += other.memcpy_calls
        self.kernel_cycles += other.kernel_cycles
        self.pci_cycles += other.pci_cycles
        self.launch_overhead_cycles += other.launch_overhead_cycles
        self.device_launches += other.device_launches
        self.kernel_timeline.extend(other.kernel_timeline)
        for sm_id, count in other.sm_instructions.items():
            self.sm_instructions[sm_id] = (
                self.sm_instructions.get(sm_id, 0) + count
            )


def stats_from_dict(data: dict) -> RunStats:
    """Rebuild the :class:`RunStats` a :meth:`RunStats.to_dict` made.

    Payloads carrying estimation fields (``intervals``/``sample``)
    come back as :class:`~repro.sim.sampled.EstimatedRunStats`, so the
    service result cache round-trips both kinds transparently.  The
    import is lazy — :mod:`repro.sim.sampled` depends on this module.
    """
    if "intervals" in data:
        from repro.sim.sampled import EstimatedRunStats

        est = EstimatedRunStats()
        est._restore(data)
        # JSON turns the (lo, hi) tuples into lists; restore the
        # tuple contract ``EstimatedRunStats.interval`` documents.
        est.intervals = {
            metric: tuple(bounds)
            for metric, bounds in data["intervals"].items()
        }
        est.sample = data["sample"]
        return est
    stats = RunStats()
    stats._restore(data)
    return stats
