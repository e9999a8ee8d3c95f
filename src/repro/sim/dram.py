"""Banked DRAM channel with FR-FCFS / FIFO / OoO-128 scheduling.

One :class:`DRAMChannel` per memory partition.  The model is
transaction-level: each 128B line request picks a bank, pays a row-hit
or row-miss latency, then serializes over the shared data pins for
``burst_cycles``.

Scheduling policies (Table I "Memory Controller"):

- ``frfcfs`` — the scheduler reorders the queue to batch same-row
  requests, modelled as a small per-bank window of recently open rows:
  a request to any row in the window counts as a row hit.
- ``fifo`` — strictly in order: a request is a row hit only when the
  bank's *currently* open row matches, so interleaved streams destroy
  row-buffer locality.  This is what costs the bandwidth-bound GASAL2
  kernels up to ~15% in Fig 16.
- ``ooo128`` — FR-FCFS with a 128-entry reorder window; at this model's
  granularity it behaves like FR-FCFS (the paper measures them as
  near-identical), but it is kept distinct for the Fig 16 sweep.

The channel also maintains the Fig 17/18 counters.  *Efficiency* is
data-pin cycles over controller-overhead time (data + row activation +
queue waits): streams with good row locality approach 1.0, isolated
row-missing requests approach ``burst / (burst + activation)``.
*Utilization* (data-pin cycles over total execution time) is computed
at the run level from ``data_cycles``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.sim.config import DRAMConfig

#: Rows the FR-FCFS reorder window can keep "effectively open" per bank.
REORDER_ROWS = 2


@dataclass
class DRAMStats:
    """Per-channel counters."""

    requests: int = 0
    row_hits: int = 0
    row_misses: int = 0
    data_cycles: int = 0
    #: row-activation overhead cycles (misses only)
    activation_cycles: int = 0
    #: cycles requests waited behind the bus / bank / ordering
    queue_cycles: int = 0

    @property
    def row_hit_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.row_hits / self.requests

    #: cycles the data bus sat idle while a request was pending
    idle_pending_cycles: int = 0

    @property
    def efficiency(self) -> float:
        """Fig 17: data-pin cycles / (data + idle-while-pending) cycles.

        Saturated streams approach 1.0; an isolated request's window is
        dominated by its service latency.
        """
        denom = self.data_cycles + self.idle_pending_cycles
        if denom == 0:
            return 0.0
        return self.data_cycles / denom

    def merge(self, other: "DRAMStats") -> None:
        self.requests += other.requests
        self.row_hits += other.row_hits
        self.row_misses += other.row_misses
        self.data_cycles += other.data_cycles
        self.activation_cycles += other.activation_cycles
        self.queue_cycles += other.queue_cycles
        self.idle_pending_cycles += other.idle_pending_cycles


@dataclass
class _Bank:
    open_row: int = -1
    busy_until: int = 0
    recent_rows: deque = field(default_factory=lambda: deque(maxlen=REORDER_ROWS))


class DRAMChannel:
    """One memory partition's DRAM channel."""

    def __init__(self, config: DRAMConfig, line_bytes: int = 128):
        self.config = config
        self.line_bytes = line_bytes
        self.stats = DRAMStats()
        #: time-resolved sampler (set by the owning MemorySubsystem;
        #: None when telemetry is off)
        self.telemetry = None
        self._banks = [_Bank() for _ in range(config.banks)]
        self._bus_busy_until = 0
        # Per-access constants hoisted out of the per-line path.
        self._fifo = config.controller == "fifo"
        self._activation = config.row_miss_latency - config.row_hit_latency
        self._row_bytes = config.row_bytes
        self._num_banks = config.banks
        self._row_hit_latency = config.row_hit_latency
        self._row_miss_latency = config.row_miss_latency
        self._burst = config.burst_cycles

    def access(self, line: int, now: int) -> int:
        """Service one line request arriving at ``now``; returns completion."""
        stats = self.stats
        row = line * self.line_bytes // self._row_bytes
        bank = self._banks[row % self._num_banks]
        recent = bank.recent_rows
        busy = bank.busy_until

        # FIFO issues in order per bank and only the physically open
        # row gives a hit, so interleaved streams lose row-buffer
        # locality; FR-FCFS / OoO-128's reorder window batches row hits.
        fifo = self._fifo
        if bank.open_row == row if fifo else row in recent:
            # FIFO: even a row hit waits for the bank's previous command
            # to drain (no CAS pipelining).  Otherwise column commands
            # pipeline, so back-to-back hits stream at bus rate.
            start = busy if fifo and busy > now else now
            ready = start + self._row_hit_latency
            stats.row_hits += 1
        else:
            # Activate/precharge occupies the bank until the transfer.
            start = busy if busy > now else now
            ready = start + self._row_miss_latency
            stats.row_misses += 1
            stats.activation_cycles += self._activation
        bank.open_row = row
        if row not in recent:
            recent.append(row)

        bus = self._bus_busy_until
        transfer_start = bus if bus > ready else ready
        burst = self._burst
        completion = transfer_start + burst
        # Bus idle time while this request was pending: the gap between
        # the previous transfer's end (or this request's arrival, if
        # later) and this transfer's start.
        stats.idle_pending_cycles += transfer_start - (bus if bus > now else now)
        self._bus_busy_until = bank.busy_until = completion
        if self.telemetry is not None:
            # Data-pin occupancy, attributed to the transfer window.
            self.telemetry.dram(transfer_start, burst)

        stats.requests += 1
        stats.data_cycles += burst
        # Queue wait: time lost to ordering, bank conflicts, and bus
        # contention beyond the intrinsic service latency.
        stats.queue_cycles += (start - now) + (transfer_start - ready)
        return completion
