"""Interconnect timing: serialization, per-hop delay, port contention.

A message from node A to node B:

1. waits for A's injection port and B's ejection port (each message
   occupies both for its serialization time — the crossbar/port model
   of contention);
2. serializes over the channel: ``ceil(bytes / channel_bytes)`` cycles;
3. pays ``hops * router_delay`` pipeline cycles plus a fixed base
   latency.

This reproduces the three NoC sensitivities the paper sweeps: topology
changes the hop count (Fig 20), ``router_delay`` scales per-hop latency
(Fig 21), and ``channel_bytes`` scales serialization (Fig 22).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.config import NoCConfig
from repro.sim.interconnect.topology import Topology, build_topology, route_table

#: Control header bytes on every message (request or response).
HEADER_BYTES = 8


@dataclass
class NetworkStats:
    """Aggregate NoC counters."""

    messages: int = 0
    bytes: int = 0
    latency_cycles: int = 0
    contention_cycles: int = 0

    @property
    def average_latency(self) -> float:
        if self.messages == 0:
            return 0.0
        return self.latency_cycles / self.messages

    def merge(self, other: "NetworkStats") -> None:
        self.messages += other.messages
        self.bytes += other.bytes
        self.latency_cycles += other.latency_cycles
        self.contention_cycles += other.contention_cycles


class Network:
    """The SM <-> memory-partition interconnect."""

    def __init__(self, config: NoCConfig, num_sms: int, num_partitions: int):
        self.config = config
        self.num_sms = num_sms
        self.topology: Topology = build_topology(
            config.topology, num_sms, num_partitions
        )
        self._up, self._down = route_table(self.topology)
        self.stats = NetworkStats()
        #: time-resolved sampler (set by the owning MemorySubsystem;
        #: None when telemetry is off)
        self.telemetry = None
        self._inject_busy = [0] * self.topology.total_nodes
        self._eject_busy = [0] * self.topology.total_nodes
        #: payload bytes -> (message bytes, serialization, cycles per hop)
        self._costs: dict[int, tuple[int, int, int]] = {}
        #: the fixed latency every message pays, read once
        self._base_latency = config.base_latency

    def _cost(self, payload_bytes: int) -> tuple[int, int, int]:
        config = self.config
        bytes_total = payload_bytes + HEADER_BYTES
        ser = max(1, math.ceil(bytes_total / config.channel_bytes))
        # Store-and-forward switching: every hop re-serializes the
        # packet, and added router-pipeline delay is paid per flit per
        # hop (flits cannot overlap the stalled pipeline with only two
        # virtual channels).  Both the per-router delay (Fig 21) and
        # the channel width (Fig 22) therefore multiply with the
        # topology's hop count (Fig 20).
        cost = (bytes_total, ser, ser * (1 + config.router_delay))
        self._costs[payload_bytes] = cost
        return cost

    def request(self, sm: int, partition: int, now: int, store_bytes: int = 0) -> int:
        """Send a memory request; returns arrival time at the partition.

        ``store_bytes`` carries write data (reads send only a header).
        """
        bytes_total, ser, per_hop = (
            self._costs.get(store_bytes) or self._cost(store_bytes)
        )
        dst = self.num_sms + partition
        inject = self._inject_busy
        eject = self._eject_busy
        start = now
        if inject[sm] > start:
            start = inject[sm]
        if eject[dst] > start:
            start = eject[dst]
        inject[sm] = eject[dst] = start + ser
        arrival = start + self._up[sm][partition] * per_hop + self._base_latency

        stats = self.stats
        stats.messages += 1
        stats.bytes += bytes_total
        stats.latency_cycles += arrival - now
        stats.contention_cycles += start - now
        if self.telemetry is not None:
            # Channel occupancy, attributed to the serialization window.
            self.telemetry.noc(start, ser, bytes_total)
        return arrival

    def response(self, partition: int, sm: int, now: int, data_bytes: int = 128) -> int:
        """Send a reply; returns arrival time at the SM.

        The same transfer as :meth:`request` in the other direction
        (kept as two bodies: each message is one call).
        """
        bytes_total, ser, per_hop = (
            self._costs.get(data_bytes) or self._cost(data_bytes)
        )
        src = self.num_sms + partition
        inject = self._inject_busy
        eject = self._eject_busy
        start = now
        if inject[src] > start:
            start = inject[src]
        if eject[sm] > start:
            start = eject[sm]
        inject[src] = eject[sm] = start + ser
        arrival = start + self._down[partition][sm] * per_hop + self._base_latency

        stats = self.stats
        stats.messages += 1
        stats.bytes += bytes_total
        stats.latency_cycles += arrival - now
        stats.contention_cycles += start - now
        if self.telemetry is not None:
            self.telemetry.noc(start, ser, bytes_total)
        return arrival
