"""Time-resolved observability: interval sampler and event tracer.

End-of-run :class:`~repro.sim.stats.RunStats` aggregates answer *how
much* but never *when*: a kernel that stalls for its whole second half
and one that stalls uniformly produce the same Fig 5 bar.  A
:class:`Telemetry` instance — attached by setting
``GPUConfig(telemetry_interval=N)``, or passed directly to
:class:`~repro.sim.gpu.GPUSimulator` — collects per-interval time
series (IPC, stall cycles per :class:`~repro.sim.stats.StallReason`,
warp-occupancy buckets, L1/L2 miss counters, DRAM data-pin cycles, NoC
channel occupancy) plus discrete events (kernel executions, CDP
launches, host memcpys, barrier-release episodes, and derived
cache-contention bursts).

Attribution contract
--------------------
Every sample carries the *simulated* cycle it describes and is split
across interval boundaries by the cycles it covers:

- an issued repeat block of ``repeat`` ALU instructions starting at
  cycle ``t`` contributes one instruction (and one occupancy-bucket
  count) to each of the cycles ``t .. t+repeat-1``;
- a stall span of ``c`` cycles attributed at ``t`` contributes to each
  of ``t .. t+c-1``;
- cache counters attach to the access's decision cycle, DRAM data
  cycles to the data-pin transfer window, NoC occupancy to the port
  serialization window.

Both SM cores — the event-maintained fast core
(:mod:`repro.sim.sm`, including its macro-issue, fused-stall, and
run-ahead paths) and the scan-per-decision reference
(:mod:`repro.sim.sm_reference`) — feed these hooks with identical
``(cycle, value)`` samples, so the interval series are bit-identical
between them; ``tests/sim/test_telemetry_differential.py`` locks this.
Hooks are guarded by a single ``is not None`` check so the
telemetry-off hot paths stay untouched.  Every workload of the
end-to-end benchmark in ``benchmarks/e2e`` runs with telemetry off;
against a copy with the checks deleted, ``cli-run`` measured about
0-2% slower on a 2-vCPU Intel Xeon host, within that host's noise
(DESIGN.md "Overhead contract" has the A/B).

Exports: :func:`write_jsonl` / :func:`load_jsonl` (one JSON object per
line: a header, then interval rows, then events) and
:func:`write_chrome_trace` (a Chrome ``trace_event`` file loadable in
Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.sim.stats import OCCUPANCY_BUCKETS, StallReason

#: Stall-reason keys in a fixed export order.
STALL_KEYS = tuple(reason.value for reason in StallReason)

#: L1 interval series threshold for a "cache-contention burst" event: a
#: maximal run of intervals whose load miss rate exceeds the threshold
#: with at least ``BURST_MIN_ACCESSES`` load accesses per interval.
BURST_MISS_RATE = 0.5
BURST_MIN_ACCESSES = 32

#: Keys every interval row carries (occupancy/stall dicts aside).
_COUNTER_KEYS = (
    "instructions",
    "l1_accesses", "l1_misses", "l1_load_accesses", "l1_load_misses",
    "l2_accesses", "l2_misses", "l2_load_accesses", "l2_load_misses",
    "dram_requests", "dram_data_cycles",
    "noc_messages", "noc_bytes", "noc_busy_cycles",
)


def _new_row() -> dict:
    row = dict.fromkeys(_COUNTER_KEYS, 0)
    row["occupancy"] = dict.fromkeys(OCCUPANCY_BUCKETS, 0)
    row["stalls"] = dict.fromkeys(STALL_KEYS, 0)
    return row


def _event_key(event: dict) -> str:
    """Canonical sort key: event streams must not depend on which core
    (or which run-ahead burst) recorded them first."""
    return json.dumps(event, sort_keys=True)


class Telemetry:
    """Low-overhead interval sampler + event tracer for one simulation.

    One instance per :class:`~repro.sim.gpu.GPUSimulator`; the
    simulator wires it into its SMs and memory subsystem at
    construction.  All recording methods take the simulated cycle of
    the sample — see the module docstring for the attribution contract.
    """

    def __init__(self, interval: int = 10_000, max_events: int = 1_000_000):
        if interval <= 0:
            raise ValueError("telemetry interval must be positive")
        self.interval = int(interval)
        self.max_events = max_events
        self.events: list[dict] = []
        self.events_dropped = 0
        self.meta: dict = {}
        self._rows: dict[int, dict] = {}
        #: Optional live-progress hook: ``fn(index, interval)`` fired
        #: the first time each new *highest* interval row opens (i.e.
        #: once per ``interval`` simulated cycles).  The service layer
        #: uses it to surface percent-complete on job status; it rides
        #: the row-creation miss path, so the recording hot paths are
        #: untouched and results are unaffected either way.
        self.progress = None
        self._progress_high = -1

    # -- row access --------------------------------------------------------
    def _row(self, index: int) -> dict:
        row = self._rows.get(index)
        if row is None:
            row = self._rows[index] = _new_row()
            if self.progress is not None and index > self._progress_high:
                self._progress_high = index
                self.progress(index, self.interval)
        return row

    def _spread(self, key: str, start: int, cycles: int, sub: str | None = None):
        """Add ``cycles`` units of ``key`` over ``[start, start+cycles)``,
        split across interval boundaries by coverage."""
        interval = self.interval
        first = start // interval
        end = start + cycles
        if end <= (first + 1) * interval:
            row = self._row(first)
            if sub is None:
                row[key] += cycles
            else:
                row[key][sub] += cycles
            return
        index = first
        while index * interval < end:
            lo = index * interval
            hi = lo + interval
            n = min(end, hi) - max(start, lo)
            row = self._row(index)
            if sub is None:
                row[key] += n
            else:
                row[key][sub] += n
            index += 1

    # -- SM-side samples ---------------------------------------------------
    def issue(self, t: float, lanes: int, repeat: int = 1) -> None:
        """A warp issued a (possibly macro-issued) instruction block at
        cycle ``t`` occupying the issue port for ``repeat`` cycles."""
        start = int(t)
        bucket = OCCUPANCY_BUCKETS[(lanes - 1) // 4]
        self._spread("instructions", start, repeat)
        self._spread("occupancy", start, repeat, sub=bucket)

    def stall(self, t: float, reason_key: str, cycles: int) -> None:
        """``cycles`` unused issue-slot cycles starting at ``t``."""
        if cycles <= 0:
            return
        self._spread("stalls", int(t), cycles, sub=reason_key)

    def cache(self, level: str, t: float, accesses: int, misses: int,
              load_accesses: int, load_misses: int) -> None:
        """Cache counters for one access burst at cycle ``t``
        (``level`` is ``"l1"`` or ``"l2"``)."""
        row = self._row(int(t) // self.interval)
        row[f"{level}_accesses"] += accesses
        row[f"{level}_misses"] += misses
        row[f"{level}_load_accesses"] += load_accesses
        row[f"{level}_load_misses"] += load_misses

    # -- memory-system samples ---------------------------------------------
    def dram(self, transfer_start: int, burst_cycles: int) -> None:
        """One DRAM line transfer occupying the data pins for
        ``burst_cycles`` from ``transfer_start``."""
        self._row(int(transfer_start) // self.interval)["dram_requests"] += 1
        self._spread("dram_data_cycles", int(transfer_start), burst_cycles)

    def noc(self, start: int, ser_cycles: int, nbytes: int) -> None:
        """One NoC message holding its ports for ``ser_cycles``."""
        row = self._row(int(start) // self.interval)
        row["noc_messages"] += 1
        row["noc_bytes"] += nbytes
        self._spread("noc_busy_cycles", int(start), ser_cycles)

    # -- discrete events ---------------------------------------------------
    def event(self, cat: str, name: str, ts: float, dur: float = 0,
              **args) -> None:
        """Record a discrete event (kernel, cdp_launch, memcpy, barrier)."""
        if len(self.events) >= self.max_events:
            self.events_dropped += 1
            return
        record = {"cat": cat, "name": name, "ts": int(ts), "dur": int(dur)}
        if args:
            record["args"] = args
        self.events.append(record)

    # -- finalize ----------------------------------------------------------
    def finalize(self, stats) -> None:
        """Derive burst events and snapshot run-level metadata."""
        for record in getattr(stats, "kernel_timeline", ()):
            self.event(
                "kernel", record["kernel"], record["start"],
                dur=record["end"] - record["start"],
                ctas=record["ctas"], origin=record["origin"],
            )
        self._derive_bursts()
        self.meta = {
            "interval": self.interval,
            "cycles": int(getattr(stats, "cycles", 0)),
            "instructions": int(getattr(stats, "instructions", 0)),
            "events_dropped": self.events_dropped,
        }

    def _derive_bursts(self) -> None:
        """Cache-contention bursts: maximal runs of high-miss intervals."""
        run_start = None
        last = None
        interval = self.interval

        def close(end_index: int) -> None:
            self.event(
                "burst", "l1_contention", run_start * interval,
                dur=(end_index - run_start) * interval,
            )

        for index in sorted(self._rows):
            row = self._rows[index]
            loads = row["l1_load_accesses"]
            hot = (
                loads >= BURST_MIN_ACCESSES
                and row["l1_load_misses"] / loads > BURST_MISS_RATE
            )
            if hot and run_start is not None and index != last + 1:
                close(last + 1)  # gap of cold intervals ends the run
                run_start = index
            elif hot and run_start is None:
                run_start = index
            elif not hot and run_start is not None:
                close(last + 1)
                run_start = None
            if hot:
                last = index
        if run_start is not None:
            close(last + 1)

    # -- views -------------------------------------------------------------
    def rows(self) -> list[dict]:
        """Interval rows in time order, each with derived rates attached."""
        interval = self.interval
        out = []
        for index in sorted(self._rows):
            raw = self._rows[index]
            row = {"index": index, "start": index * interval,
                   "end": (index + 1) * interval}
            row.update({k: raw[k] for k in _COUNTER_KEYS})
            row["occupancy"] = dict(raw["occupancy"])
            row["stalls"] = dict(raw["stalls"])
            row["ipc"] = raw["instructions"] / interval
            total_stall = sum(raw["stalls"].values())
            row["stall_fractions"] = (
                {k: v / total_stall for k, v in raw["stalls"].items()}
                if total_stall else {}
            )
            row["l1_miss_rate"] = (
                raw["l1_load_misses"] / raw["l1_load_accesses"]
                if raw["l1_load_accesses"] else 0.0
            )
            row["l2_miss_rate"] = (
                raw["l2_load_misses"] / raw["l2_load_accesses"]
                if raw["l2_load_accesses"] else 0.0
            )
            row["dram_bandwidth"] = raw["dram_data_cycles"] / interval
            row["noc_utilization"] = raw["noc_busy_cycles"] / interval
            out.append(row)
        return out

    def sorted_events(self) -> list[dict]:
        """Events in a canonical order independent of recording order."""
        return sorted(self.events, key=_event_key)

    def summary(self) -> dict:
        """The JSON-serializable snapshot stored on ``RunStats.telemetry``."""
        return {
            "meta": dict(self.meta) or {"interval": self.interval,
                                        "events_dropped": self.events_dropped},
            "rows": self.rows(),
            "events": self.sorted_events(),
        }

    def aggregate(self) -> dict:
        """Sum the interval series back into run totals (invariant tests:
        these must reproduce the aggregate ``RunStats`` counters)."""
        return aggregate_rows(self.rows())


def aggregate_rows(rows: Iterable[dict]) -> dict:
    """Re-aggregate interval rows into run totals."""
    totals = dict.fromkeys(_COUNTER_KEYS, 0)
    occupancy = dict.fromkeys(OCCUPANCY_BUCKETS, 0)
    stalls: dict[str, int] = {}
    for row in rows:
        for key in _COUNTER_KEYS:
            totals[key] += row[key]
        for bucket, n in row["occupancy"].items():
            occupancy[bucket] += n
        for key, n in row["stalls"].items():
            if n:
                stalls[key] = stalls.get(key, 0) + n
    totals["occupancy"] = occupancy
    totals["stalls"] = stalls
    return totals


# -- file formats -----------------------------------------------------------

def write_jsonl(summary: dict, path) -> None:
    """Write a telemetry summary as JSONL: header, rows, then events."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"type": "header", **summary["meta"]}) + "\n")
        for row in summary["rows"]:
            fh.write(json.dumps({"type": "interval", **row}) + "\n")
        for event in summary["events"]:
            fh.write(json.dumps({"type": "event", **event}) + "\n")


def load_jsonl(path) -> dict:
    """Load a :func:`write_jsonl` file back into a summary dict."""
    meta: dict = {}
    rows: list[dict] = []
    events: list[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("type")
            if kind == "header":
                meta = record
            elif kind == "interval":
                rows.append(record)
            elif kind == "event":
                events.append(record)
            else:
                raise ValueError(f"unknown telemetry record type {kind!r}")
    return {"meta": meta, "rows": rows, "events": events}


#: Counter tracks exported to the Chrome trace, per interval row.
_TRACE_COUNTERS = (
    ("ipc", "ipc"),
    ("l1_miss_rate", "l1 miss rate"),
    ("l2_miss_rate", "l2 miss rate"),
    ("dram_bandwidth", "dram bandwidth"),
    ("noc_utilization", "noc utilization"),
)

_PID_KERNELS = 1
_PID_COUNTERS = 2
_PID_EVENTS = 3


def write_chrome_trace(summary: dict, path) -> None:
    """Write a Chrome ``trace_event`` file (Perfetto / chrome://tracing).

    Timestamps are simulated cycles presented as microseconds (the
    ``trace_event`` format has no cycle unit).  Kernel executions render
    as duration slices, interval series as counter tracks, and discrete
    events as instants.
    """
    trace: list[dict] = [
        {"ph": "M", "pid": _PID_KERNELS, "name": "process_name",
         "args": {"name": "kernels"}},
        {"ph": "M", "pid": _PID_COUNTERS, "name": "process_name",
         "args": {"name": "interval metrics"}},
        {"ph": "M", "pid": _PID_EVENTS, "name": "process_name",
         "args": {"name": "events"}},
    ]
    lanes: dict[str, int] = {}
    for event in summary["events"]:
        cat, name = event["cat"], event["name"]
        if cat == "kernel":
            tid = lanes.setdefault(name, len(lanes))
            trace.append({
                "ph": "X", "pid": _PID_KERNELS, "tid": tid,
                "name": name, "cat": cat,
                "ts": event["ts"], "dur": max(1, event["dur"]),
                "args": event.get("args", {}),
            })
        else:
            trace.append({
                "ph": "i", "s": "g", "pid": _PID_EVENTS, "tid": 0,
                "name": f"{cat}:{name}", "cat": cat, "ts": event["ts"],
                "args": event.get("args", {}),
            })
    for row in summary["rows"]:
        ts = row["start"]
        for key, label in _TRACE_COUNTERS:
            trace.append({
                "ph": "C", "pid": _PID_COUNTERS, "name": label,
                "ts": ts, "args": {label: round(row[key], 6)},
            })
        trace.append({
            "ph": "C", "pid": _PID_COUNTERS, "name": "stall cycles",
            "ts": ts,
            "args": {k: v for k, v in row["stalls"].items()},
        })
    for name, tid in lanes.items():
        trace.append({
            "ph": "M", "pid": _PID_KERNELS, "tid": tid,
            "name": "thread_name", "args": {"name": name},
        })
    payload = {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": dict(summary.get("meta", {})),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


__all__ = [
    "Telemetry",
    "aggregate_rows",
    "write_jsonl",
    "load_jsonl",
    "write_chrome_trace",
    "STALL_KEYS",
]
