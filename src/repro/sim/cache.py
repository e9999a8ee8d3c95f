"""Set-associative LRU cache model.

Tag-only (no data payloads).  Write policy is write-back with
write-validate allocation: a store miss allocates the line dirty
without fetching it from below (the GPU L1 behaviour for global
stores); dirty evictions are handed to ``writeback_sink`` so the owner
can propagate them to the next level and charge DRAM bandwidth.

A set holds the shared empty tuple ``_NO_LINES`` until its first fill,
which allocates its ``OrderedDict`` and records it as live; ``flush``
walks only the live sets.  An empty machine (a 128 MB L2 has 65,536
sets) therefore costs one list slot per set, not one dict.

Miss rate follows the profiler convention (nvprof's global load hit
rate): only *loads* enter the miss-rate numerator/denominator; store
traffic is counted separately.

Telemetry contract: :class:`CacheStats` counters are updated
*synchronously inside* :meth:`Cache.access` / :meth:`Cache.probe_hits`
(never deferred), because the SM cores sample per-interval L1 series by
delta-capturing ``cache.stats`` around one memory instruction's access
block (see ``repro.sim.telemetry``).  ``contains_all`` must stay
side-effect-free for the same reason — the run-ahead probe must not
perturb the sampled counters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.sim.config import CacheConfig

#: the ways of every set that has never been filled (``line in ()`` is a
#: miss, so the hit paths need no test for it)
_NO_LINES = ()


@dataclass(slots=True)
class CacheStats:
    """Hit/miss counters (loads and stores tracked separately)."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    load_accesses: int = 0
    load_misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        """Load miss rate (profiler convention)."""
        if self.load_accesses == 0:
            return 0.0
        return self.load_misses / self.load_accesses

    @property
    def total_miss_rate(self) -> float:
        """Miss rate over loads and stores together."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def merge(self, other: "CacheStats") -> None:
        self.accesses += other.accesses
        self.hits += other.hits
        self.misses += other.misses
        self.load_accesses += other.load_accesses
        self.load_misses += other.load_misses
        self.evictions += other.evictions
        self.writebacks += other.writebacks


class Cache:
    """One cache instance (an L1, an L2 bank, a constant cache...)."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self.stats = CacheStats()
        #: called with (line,) when a dirty line is evicted
        self.writeback_sink = None
        # Geometry hoisted out of the per-access path (CacheConfig's
        # accessors are computed properties).
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self._disabled = config.disabled
        # sets[set_index] maps line -> dirty flag, in LRU order (oldest
        # first), or is _NO_LINES until the set's first fill; _live
        # lists the indices of the allocated sets.
        self._sets: list = [_NO_LINES] * self._num_sets
        self._live: list[int] = []

    def access(self, line: int, store: bool = False) -> bool:
        """Access a line; returns ``True`` on hit.  Misses auto-fill."""
        stats = self.stats
        stats.accesses += 1
        if not store:
            stats.load_accesses += 1
        if self._disabled:
            stats.misses += 1
            if not store:
                stats.load_misses += 1
            return False
        ways = self._sets[line % self._num_sets]
        if line in ways:
            stats.hits += 1
            ways.move_to_end(line)
            if store:
                ways[line] = True
            return True
        stats.misses += 1
        if not store:
            stats.load_misses += 1
        # Fill: evict the LRU way when the set is full, handing a dirty
        # victim to the next level before the new line is inserted; a
        # set's first fill allocates it.
        if len(ways) >= self._assoc:
            victim, victim_dirty = ways.popitem(last=False)
            stats.evictions += 1
            if victim_dirty:
                stats.writebacks += 1
                if self.writeback_sink is not None:
                    self.writeback_sink(victim)
        elif ways is _NO_LINES:
            index = line % self._num_sets
            ways = self._sets[index] = OrderedDict()
            self._live.append(index)
        ways[line] = store
        return False

    def probe_hits(self, lines, store: bool = False) -> int:
        """Access the longest all-hit prefix of ``lines`` in one call.

        Returns ``k`` such that ``lines[:k]`` all hit; side effects
        (LRU promotion, dirty marking, counters) are exactly those of
        calling :meth:`access` on each of them, and ``lines[k]`` — the
        first miss — is left completely untouched for the caller to
        handle.  This keeps miss-side effects (fills, evictions,
        writeback ordering) on the one-at-a-time path while the common
        all-hit case runs without per-line Python call overhead.
        """
        if self._disabled:
            return 0
        sets = self._sets
        num_sets = self._num_sets
        k = 0
        for line in lines:
            ways = sets[line % num_sets]
            if line not in ways:
                break
            ways.move_to_end(line)
            if store:
                ways[line] = True
            k += 1
        if k:
            stats = self.stats
            stats.accesses += k
            stats.hits += k
            if not store:
                stats.load_accesses += k
        return k

    def contains_all(self, lines) -> bool:
        """Side-effect-free probe: would every line in ``lines`` hit?

        Hits never evict and never write back, so an all-resident
        access is purely SM-local; the run-ahead issue loop
        (``repro.sim.sm``) uses this to decide whether an access can
        execute out of global event order.  No counters or LRU state
        are touched — the subsequent real access does all of that.
        """
        if self._disabled:
            return False
        sets = self._sets
        num_sets = self._num_sets
        for line in lines:
            if line not in sets[line % num_sets]:
                return False
        return True

    def contains(self, line: int) -> bool:
        """Probe without side effects (for tests)."""
        if self._disabled:
            return False
        return line in self._sets[line % self._num_sets]

    def dirty_resident(self) -> int:
        """Number of dirty lines currently resident (not yet written back)."""
        sets = self._sets
        return sum(
            sum(1 for dirty in sets[index].values() if dirty)
            for index in self._live
        )

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty writebacks.

        Used to model the locality loss between kernel invocations the
        paper calls out (cudaMemcpy between launches invalidates reuse).
        Flushed dirty lines are dropped, not propagated — the host has
        already overwritten the data.
        """
        if not self._live:
            return 0
        writebacks = self.dirty_resident()
        sets = self._sets
        for index in self._live:
            sets[index] = _NO_LINES
        self._live.clear()
        self.stats.writebacks += writebacks
        return writebacks
