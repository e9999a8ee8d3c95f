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
        # The walk's hops, bound once: each is still the component's
        # own counted method (resolved when the subsystem is built).
        self._noc_request = self.network.request
        self._noc_response = self.network.response
        self._l2_access = [bank.access for bank in self.l2_banks]
        self._dram_access = [channel.access for channel in self.dram]

    def partition_of(self, line: int) -> int:
        """Address interleaving: consecutive lines hit consecutive partitions."""
        return line % self._num_partitions

    def line_request(self, sm_id: int, line: int, store: bool, now: float) -> float:
        """Service one line that missed the SM-side cache; returns completion.

        The one per-line walk: NoC request -> L2 bank -> DRAM on a miss
        -> NoC response (loads only).  Stores carry the line as write
        data and are accepted at the partition, so they complete
        without a response leg.  Every hop is a call on the component
        that counts it (``Network.request``/``response``,
        ``Cache.access``, ``DRAMChannel.access``) and nothing else.
        """
        partition = line % self._num_partitions
        at_l2 = self._noc_request(
            sm_id, partition, int(now), self._line_bytes if store else 0
        )
        hit = self._l2_access[partition](line, store)
        tel = self.telemetry
        if tel is not None:
            tel.cache("l2", at_l2, 1, 0 if hit else 1,
                      0 if store else 1, 0 if (store or hit) else 1)
        served = at_l2 + self._l2_latency
        if not hit:
            served = self._dram_access[partition](line, served)
        if store:
            return served
        return self._noc_response(partition, sm_id, served, self._line_bytes)

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
        line_request = self.line_request
        latest = 0.0
        for now, line in entries:
            done = line_request(sm_id, line, store, now)
            if done > latest:
                latest = done
        return latest

    def writeback(self, sm_id: int, line: int, now: float) -> None:
        """An L1 dirty eviction: push the line to L2 (and DRAM on miss).

        Fire-and-forget from the warp's perspective, but it consumes
        NoC and DRAM bandwidth, which is where the write-heavy kernels'
        DRAM utilization comes from.  The store half of
        :meth:`line_request`'s walk (request -> L2 -> DRAM on a miss),
        folded in so an eviction costs no extra call.
        """
        partition = line % self._num_partitions
        at_l2 = self._noc_request(sm_id, partition, int(now), self._line_bytes)
        hit = self._l2_access[partition](line, True)
        tel = self.telemetry
        if tel is not None:
            tel.cache("l2", at_l2, 1, 0 if hit else 1, 0, 0)
        if not hit:
            self._dram_access[partition](line, at_l2 + self._l2_latency)

    def flush(self) -> None:
        """Invalidate all L2 banks (host memcpy clobbers device data)."""
        for bank in self.l2_banks:
            bank.flush()
