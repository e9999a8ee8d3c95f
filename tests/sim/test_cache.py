"""Tests for the set-associative cache model."""

import tracemalloc
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cache import Cache, CacheStats
from repro.sim.config import CacheConfig


def make_cache(size=1024, assoc=2, line=128):
    return Cache(CacheConfig(size, assoc, line_bytes=line))


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        assert cache.access(5) is False
        assert cache.access(5) is True

    def test_num_sets(self):
        # 1024B / 128B = 8 lines, 2-way -> 4 sets.
        assert CacheConfig(1024, 2).num_sets == 4

    def test_disabled_cache_always_misses(self):
        cache = Cache(CacheConfig(0, 1))
        assert cache.access(1) is False
        assert cache.access(1) is False
        assert cache.stats.misses == 2

    def test_cache_smaller_than_line_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(64, 1)

    def test_contains_no_side_effects(self):
        cache = make_cache()
        cache.access(4)
        before = cache.stats.accesses
        assert cache.contains(4)
        assert not cache.contains(8)
        assert cache.stats.accesses == before


class TestLRUReplacement:
    def test_lru_eviction_order(self):
        # 4 sets, 2 ways: lines 0, 4, 8 share set 0.
        cache = make_cache()
        cache.access(0)
        cache.access(4)
        cache.access(0)  # refresh line 0
        cache.access(8)  # evicts line 4 (LRU)
        assert cache.contains(0)
        assert not cache.contains(4)
        assert cache.contains(8)

    def test_associativity_respected(self):
        cache = make_cache(assoc=2)
        cache.access(0)
        cache.access(4)
        assert cache.contains(0) and cache.contains(4)

    def test_different_sets_no_conflict(self):
        cache = make_cache()
        for line in range(4):  # one line per set
            cache.access(line)
        assert all(cache.contains(line) for line in range(4))

    @given(st.lists(st.integers(min_value=0, max_value=63),
                    min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_occupancy_never_exceeds_capacity(self, lines):
        cache = make_cache(size=1024, assoc=2)
        for line in lines:
            cache.access(line)
        resident = sum(1 for line in set(lines) if cache.contains(line))
        assert resident <= 8  # total ways

    @given(st.lists(st.integers(min_value=0, max_value=63),
                    min_size=1, max_size=100))
    @settings(max_examples=40)
    def test_stats_consistent(self, lines):
        cache = make_cache()
        for line in lines:
            cache.access(line)
        s = cache.stats
        assert s.hits + s.misses == s.accesses == len(lines)
        assert s.load_accesses == len(lines)


class TestWritePolicy:
    def test_store_miss_allocates_dirty(self):
        cache = make_cache()
        cache.access(3, store=True)
        assert cache.contains(3)

    def test_dirty_eviction_hits_sink(self):
        evicted = []
        cache = make_cache()
        cache.writeback_sink = evicted.append
        cache.access(0, store=True)
        cache.access(4)
        cache.access(8)  # evicts dirty line 0
        assert evicted == [0]
        assert cache.stats.writebacks == 1

    def test_clean_eviction_silent(self):
        evicted = []
        cache = make_cache()
        cache.writeback_sink = evicted.append
        cache.access(0)
        cache.access(4)
        cache.access(8)
        assert evicted == []

    def test_store_hit_marks_dirty(self):
        evicted = []
        cache = make_cache()
        cache.writeback_sink = evicted.append
        cache.access(0)  # clean fill
        cache.access(0, store=True)  # now dirty
        cache.access(4)
        cache.access(8)
        assert evicted == [0]

    def test_miss_rate_is_load_only(self):
        cache = make_cache()
        cache.access(0, store=True)  # store miss: excluded
        cache.access(0)  # load hit
        assert cache.stats.miss_rate == 0.0
        assert cache.stats.total_miss_rate == 0.5


class TestFlush:
    def test_flush_invalidates(self):
        cache = make_cache()
        cache.access(1)
        cache.access(2, store=True)
        dirty = cache.flush()
        assert dirty == 1
        assert not cache.contains(1)
        assert not cache.contains(2)

    def test_flush_does_not_call_sink(self):
        evicted = []
        cache = make_cache()
        cache.writeback_sink = evicted.append
        cache.access(2, store=True)
        cache.flush()
        assert evicted == []


class TestCacheStatsMerge:
    def test_merge_adds_counters(self):
        a, b = CacheStats(accesses=2, hits=1, misses=1), CacheStats(accesses=3, misses=3)
        a.merge(b)
        assert a.accesses == 5
        assert a.misses == 4


class ReferenceCache:
    """The dense model: one ``OrderedDict`` per set from construction,
    and a flush that walks every set.  :class:`Cache` must behave
    exactly like it."""

    def __init__(self, config: CacheConfig):
        self.stats = CacheStats()
        self.writeback_sink = None
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self.disabled = config.disabled
        self.sets = [OrderedDict() for _ in range(self.num_sets)]

    def access(self, line, store=False):
        stats = self.stats
        stats.accesses += 1
        if not store:
            stats.load_accesses += 1
        if self.disabled:
            stats.misses += 1
            if not store:
                stats.load_misses += 1
            return False
        ways = self.sets[line % self.num_sets]
        if line in ways:
            stats.hits += 1
            ways.move_to_end(line)
            if store:
                ways[line] = True
            return True
        stats.misses += 1
        if not store:
            stats.load_misses += 1
        if len(ways) >= self.assoc:
            victim, victim_dirty = ways.popitem(last=False)
            stats.evictions += 1
            if victim_dirty:
                stats.writebacks += 1
                self.writeback_sink(victim)
        ways[line] = store
        return False

    def probe_hits(self, lines, store=False):
        if self.disabled:
            return 0
        k = 0
        for line in lines:
            if line not in self.sets[line % self.num_sets]:
                break
            self.access(line, store)
            k += 1
        return k

    def contains_all(self, lines):
        if self.disabled:
            return False
        return all(line in self.sets[line % self.num_sets] for line in lines)

    def contains(self, line):
        return self.contains_all([line])

    def dirty_resident(self):
        return sum(sum(ways.values()) for ways in self.sets)

    def flush(self):
        writebacks = self.dirty_resident()
        for ways in self.sets:
            ways.clear()
        self.stats.writebacks += writebacks
        return writebacks


@st.composite
def cache_scripts(draw):
    """A geometry (1-4096 sets x 1-16 ways, or disabled) and a call
    script over a few hot sets, so that sets fill, evict and refill."""
    assoc = draw(st.integers(1, 16))
    num_sets = draw(st.integers(1, 4096))
    disabled = draw(st.integers(0, 7)) == 0  # one geometry in eight
    config = CacheConfig(0 if disabled else num_sets * assoc * 128, assoc)
    hot = draw(st.lists(st.integers(0, num_sets - 1), min_size=1, max_size=4))
    line = st.builds(lambda s, tag: s + num_sets * tag,
                     st.sampled_from(hot), st.integers(0, assoc + 2))
    lines = st.lists(line, max_size=2 * assoc + 2)
    store = st.booleans()
    call = st.one_of(
        st.tuples(st.just("access"), line, store),
        st.tuples(st.just("probe_hits"), lines, store),
        st.tuples(st.just("contains_all"), lines),
        st.tuples(st.just("contains"), line),
        st.tuples(st.just("flush")),
        st.tuples(st.just("dirty_resident")),
    )
    return config, draw(st.lists(call, max_size=120))


class TestAgainstDenseReference:
    @given(cache_scripts())
    @settings(max_examples=150, deadline=None)
    def test_same_results_counters_and_writeback_order(self, script):
        config, calls = script
        cache, ref = Cache(config), ReferenceCache(config)
        sunk, ref_sunk = [], []
        cache.writeback_sink = sunk.append
        ref.writeback_sink = ref_sunk.append
        for name, *args in calls:
            want = getattr(ref, name)(*args)
            assert getattr(cache, name)(*args) == want, (name, args)
            assert cache.stats == ref.stats, (name, args)
        assert sunk == ref_sunk


class TestEmptyMachineCost:
    def test_largest_cache_sweep_point_allocates_under_2mb(self):
        # The 4 MB L1 / 128 MB L2 point of the cache sweep has 65,536
        # L2 and 9,984 L1 sets; one dict per set at construction came
        # to about 10 MB.
        from repro.core.config_presets import with_cache_sizes
        from repro.sim.config import GPUConfig
        from repro.sim.gpu import GPUSimulator

        config = with_cache_sizes(GPUConfig(), 4 << 20, 128 << 20)
        GPUSimulator(GPUConfig())  # import-time and first-call set-up
        tracemalloc.start()
        try:
            simulator = GPUSimulator(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, f"{peak / (1 << 20):.2f} MB"
        assert all(not bank._live for bank in simulator.memory.l2_banks)
