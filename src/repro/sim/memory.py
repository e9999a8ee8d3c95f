"""The shared memory subsystem: L2 banks, interconnect, DRAM channels.

One instance is shared by all SMs.  Each 128B-line transaction takes
the path L1 (SM-side, owned by the caller) -> NoC request -> L2 bank of
its partition -> DRAM channel on an L2 miss -> NoC response.  Loads
block the warp until the slowest line returns; stores are write-back
fire-and-forget (the warp only pays the L1 latency).
"""

from __future__ import annotations

from repro.sim.cache import Cache
from repro.sim.config import GPUConfig
from repro.sim.dram import DRAMChannel
from repro.sim.interconnect.network import Network


class MemorySubsystem:
    """Everything beyond the SM-private caches."""

    def __init__(self, config: GPUConfig, telemetry=None):
        self.config = config
        #: time-resolved sampler shared with the owning simulator
        #: (None when off); L2 samples are recorded here, NoC and DRAM
        #: samples inside their own components.
        self.telemetry = telemetry
        self.network = Network(
            config.noc, config.num_sms, config.num_mem_partitions
        )
        self.network.telemetry = telemetry
        # The L2 is physically banked: one slice per memory partition,
        # each 1/P of the configured capacity.
        slice_bytes = config.l2.size_bytes // config.num_mem_partitions
        slice_config = (
            config.l2
            if config.l2.disabled
            else config.l2.__class__(
                size_bytes=max(config.l2.line_bytes * config.l2.assoc, slice_bytes),
                assoc=config.l2.assoc,
                line_bytes=config.l2.line_bytes,
                hit_latency=config.l2.hit_latency,
            )
        )
        self.l2_banks = [
            Cache(slice_config, name=f"l2[{p}]")
            for p in range(config.num_mem_partitions)
        ]
        self.dram = [
            DRAMChannel(config.dram, line_bytes=config.l2.line_bytes)
            for _ in range(config.num_mem_partitions)
        ]
        for channel in self.dram:
            channel.telemetry = telemetry
        # Per-line constants hoisted out of the request path.
        self._num_partitions = config.num_mem_partitions
        self._line_bytes = config.l2.line_bytes
        self._l2_latency = slice_config.hit_latency

    def partition_of(self, line: int) -> int:
        """Address interleaving: consecutive lines hit consecutive partitions."""
        return line % self._num_partitions

    def _leg(self, sm_id: int, line: int, store: bool, now: int) -> int:
        """The one per-line path: NoC request -> L2 bank -> DRAM on a
        miss -> NoC response (loads only); returns completion.

        Stores carry the line as write data and are accepted at the
        partition, so they complete without a response leg.
        """
        partition = line % self._num_partitions
        line_bytes = self._line_bytes
        at_l2 = self.network.request(
            sm_id, partition, now, line_bytes if store else 0
        )
        hit = self.l2_banks[partition].access(line, store)
        tel = self.telemetry
        if tel is not None:
            tel.cache("l2", at_l2, 1, 0 if hit else 1,
                      0 if store else 1, 0 if (store or hit) else 1)
        served = at_l2 + self._l2_latency
        if not hit:
            served = self.dram[partition].access(line, served)
        if store:
            return served
        return self.network.response(partition, sm_id, served, line_bytes)

    def line_request(self, sm_id: int, line: int, store: bool, now: float) -> float:
        """Service one line that missed the SM-side cache; returns completion."""
        return self._leg(sm_id, line, store, int(now))

    def line_requests(self, sm_id: int, entries, store: bool) -> float:
        """Service an ordered batch of SM-cache misses in one call.

        ``entries`` is a sequence of ``(issue_time, line)`` pairs in
        program order.  Effects on the NoC, L2 banks, and DRAM are
        issued in exactly the order sequential :meth:`line_request`
        calls would produce; the return value is the latest completion
        across the batch.  Callers must only batch misses whose source
        cache has no ``writeback_sink`` (const/tex), so no writeback
        traffic can interleave between the entries.
        """
        leg = self._leg
        latest = 0.0
        for now, line in entries:
            done = leg(sm_id, line, store, int(now))
            if done > latest:
                latest = done
        return latest

    def writeback(self, sm_id: int, line: int, now: float) -> None:
        """An L1 dirty eviction: push the line to L2 (and DRAM on miss).

        Fire-and-forget from the warp's perspective, but it consumes
        NoC and DRAM bandwidth, which is where the write-heavy kernels'
        DRAM utilization comes from.
        """
        self._leg(sm_id, line, True, int(now))

    def flush(self) -> None:
        """Invalidate all L2 banks (host memcpy clobbers device data)."""
        for bank in self.l2_banks:
            bank.flush()
