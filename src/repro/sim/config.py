"""Simulator configuration — every knob from Tables I and II.

The bolded values in the paper's tables (the RTX 3070 hardware
configuration, also the simulation baseline) are the defaults returned
by :func:`rtx3070_baseline`.  Sweep lists used by the figure harnesses
live in :mod:`repro.core.config_presets`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative cache (Table I: LRU, 128B lines)."""

    size_bytes: int
    assoc: int
    line_bytes: int = 128
    hit_latency: int = 28

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("cache size must be non-negative")
        if self.size_bytes:
            lines = self.size_bytes // self.line_bytes
            if lines == 0:
                raise ValueError("cache smaller than one line")
            if self.assoc <= 0:
                raise ValueError("associativity must be positive")

    @property
    def num_sets(self) -> int:
        if self.size_bytes == 0:
            return 0
        lines = self.size_bytes // self.line_bytes
        return max(1, lines // self.assoc)

    @property
    def disabled(self) -> bool:
        return self.size_bytes == 0


@dataclass(frozen=True)
class DRAMConfig:
    """One memory partition's DRAM channel.

    ``controller`` is ``"frfcfs"`` (baseline), ``"fifo"``, or
    ``"ooo128"`` (FR-FCFS with a 128-entry reorder window) — the three
    Table I memory-controller settings.
    """

    controller: str = "frfcfs"
    banks: int = 16
    row_bytes: int = 2048
    row_hit_latency: int = 40
    row_miss_latency: int = 100
    burst_cycles: int = 4  # one 128B line over a 32B/cycle pin bus

    def __post_init__(self) -> None:
        if self.controller not in ("frfcfs", "fifo", "ooo128"):
            raise ValueError(f"unknown controller {self.controller!r}")
        if self.banks <= 0:
            raise ValueError("need at least one bank")


@dataclass(frozen=True)
class NoCConfig:
    """Interconnect between SMs and memory partitions (Table II)."""

    topology: str = "xbar"  # xbar | mesh | fattree | butterfly
    router_delay: int = 0  # extra pipeline cycles per hop (Fig 21)
    channel_bytes: int = 40  # flit size / channel width (Fig 22)
    base_latency: int = 10  # wire + arbitration minimum, both directions

    def __post_init__(self) -> None:
        if self.topology not in ("xbar", "mesh", "fattree", "butterfly"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.channel_bytes <= 0:
            raise ValueError("channel width must be positive")


@dataclass(frozen=True)
class PCIConfig:
    """Host<->device copy engine (cudaMemcpy cost model)."""

    latency_cycles: int = 2000  # fixed per-call overhead
    bytes_per_cycle: float = 10.0  # ~16 GB/s at 1.5 GHz

    def __post_init__(self) -> None:
        if self.bytes_per_cycle <= 0:
            raise ValueError("PCI bandwidth must be positive")


#: GPUConfig fields a machine needs at least one of: an SM that holds
#: no CTA, thread or register can run nothing.
_AT_LEAST_ONE = ("max_ctas_per_sm", "max_threads_per_sm", "registers_per_sm")
#: GPUConfig fields that are sizes or cycle counts, which cannot be
#: negative (a negative latency or launch cost runs time backwards).
_NON_NEGATIVE = (
    "shared_mem_per_sm", "int_latency", "fp_latency", "sfu_latency",
    "shared_latency", "branch_latency", "host_launch_cycles",
    "cdp_launch_cycles", "cdp_dispatch_cycles",
)


@dataclass(frozen=True)
class GPUConfig:
    """Full device configuration (Table I bolded values by default)."""

    num_sms: int = 78
    max_ctas_per_sm: int = 32
    max_threads_per_sm: int = 1536
    registers_per_sm: int = 65536
    shared_mem_per_sm: int = 100 * 1024
    scheduler: str = "lrr"  # lrr | gto | old | 2lv

    l1: CacheConfig = field(default_factory=lambda: CacheConfig(128 * 1024, 256))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(4 * 1024 * 1024, 16, hit_latency=120)
    )
    const_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 256, hit_latency=8)
    )
    tex_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(128 * 1024, 64, hit_latency=30)
    )

    num_mem_partitions: int = 8
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    noc: NoCConfig = field(default_factory=NoCConfig)
    pci: PCIConfig = field(default_factory=PCIConfig)

    # Execution latencies (cycles until the warp may issue again).
    int_latency: int = 4
    fp_latency: int = 4
    sfu_latency: int = 16
    shared_latency: int = 24
    branch_latency: int = 8

    # Kernel-launch costs.
    host_launch_cycles: int = 2000  # driver + runtime setup per host launch
    cdp_launch_cycles: int = 600  # device-runtime child launch overhead
    cdp_dispatch_cycles: int = 400  # delay until a child grid is runnable

    #: Zero-latency memory system (Fig 15's "perfect memory").
    perfect_memory: bool = False

    #: Interval length (in cycles) of the time-resolved telemetry
    #: sampler (:mod:`repro.sim.telemetry`).  ``0`` (the default)
    #: disables telemetry entirely — the hot paths then pay only a
    #: ``None`` check per attribution point.  Positive values attach a
    #: :class:`~repro.sim.telemetry.Telemetry` to the simulator and
    #: store its summary on ``RunStats.telemetry`` at finalize.
    telemetry_interval: int = 0

    #: Use the event-maintained issue loop (incremental ready tracking,
    #: macro-issue batching, memory fast path — see DESIGN.md "event
    #: core").  ``False`` selects the scan-per-decision reference SM,
    #: kept for golden bit-identity tests and wall-clock benchmarking;
    #: both produce field-for-field identical :class:`RunStats`.
    event_core: bool = True

    #: Sampled-estimation mode (:mod:`repro.sim.sampled`).  ``0.0``
    #: (the default) runs the exact cycle-accurate core.  A positive
    #: fraction simulates a stratified sample of CTAs on a
    #: proportionally scaled machine and extrapolates whole-run stats
    #: with confidence intervals — go through
    #: :func:`repro.sim.sampled.estimate_application` (or
    #: ``repro run --estimate``); ``GPUSimulator.run_application``
    #: rejects configs with a positive fraction to catch misuse.
    sample_fraction: float = 0.0
    #: Deterministic seed for CTA sampling.  The same
    #: ``(app, config, sample_seed)`` always yields the same
    #: :class:`~repro.sim.sampled.EstimatedRunStats`, regardless of
    #: ``--jobs`` (no global RNG state is touched).
    sample_seed: int = 0

    # Ablation switches (defaults model the hardware; see DESIGN.md).
    #: Host-to-device copies invalidate cached device data (the paper's
    #: inter-kernel locality-loss observation).
    flush_on_memcpy: bool = True
    #: SM-side caches retire one transaction per cycle, so uncoalesced
    #: accesses pay for every line they touch.
    l1_port_serialization: bool = True

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ValueError("need at least one SM")
        for name in _AT_LEAST_ONE:
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        for name in _NON_NEGATIVE:
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.scheduler not in ("lrr", "gto", "old", "2lv"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.num_mem_partitions <= 0:
            raise ValueError("need at least one memory partition")
        if self.telemetry_interval < 0:
            raise ValueError("telemetry interval must be >= 0 (0 = off)")
        if not 0.0 <= self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in [0, 1]")

    def with_(self, **changes) -> "GPUConfig":
        """A copy with fields replaced (sweep helper)."""
        return replace(self, **changes)


def rtx3070_baseline(**overrides) -> GPUConfig:
    """The paper's baseline: bolded Table I values on an RTX 3070."""
    return GPUConfig(**overrides)


def rtx3090_config(**overrides) -> GPUConfig:
    """A GA102-class device: more SMs, bigger L2, wider memory system."""
    params: dict = dict(
        num_sms=82,
        l2=CacheConfig(6 * 1024 * 1024, 16, hit_latency=120),
        num_mem_partitions=12,
        shared_mem_per_sm=100 * 1024,
    )
    params.update(overrides)
    return GPUConfig(**params)


def a100_config(**overrides) -> GPUConfig:
    """An GA100-class compute device: 108 SMs, 40MB L2, HBM-like DRAM."""
    params: dict = dict(
        num_sms=108,
        max_threads_per_sm=2048,
        registers_per_sm=65536,
        shared_mem_per_sm=164 * 1024,
        l2=CacheConfig(40 * 1024 * 1024, 16, hit_latency=140),
        num_mem_partitions=16,
        dram=DRAMConfig(row_hit_latency=30, row_miss_latency=80,
                        burst_cycles=2),
    )
    params.update(overrides)
    return GPUConfig(**params)
