"""Tests for warp scheduler policies."""

import random

import pytest

from repro.sim.scheduler import (
    GreedyThenOldest,
    LooseRoundRobin,
    OldestFirst,
    TwoLevel,
    build_scheduler,
)


class FakeWarp:
    """Minimal stand-in with the attributes schedulers read."""

    def __init__(self, age):
        self.age = age
        self.exited = False
        self.in_ready = True

    def __repr__(self):
        return f"W{self.age}"


def mark_ready(warps, ready):
    """Set ``in_ready`` flags the way the SM's ready list would."""
    ready_ids = {id(w) for w in ready}
    for w in warps:
        w.in_ready = id(w) in ready_ids
    return ready


@pytest.fixture
def warps():
    return [FakeWarp(i) for i in range(4)]


class TestBuildScheduler:
    @pytest.mark.parametrize("name,cls", [
        ("lrr", LooseRoundRobin),
        ("gto", GreedyThenOldest),
        ("old", OldestFirst),
        ("2lv", TwoLevel),
    ])
    def test_registry(self, name, cls):
        assert isinstance(build_scheduler(name), cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            build_scheduler("fifo")


class TestLRR:
    def test_rotates_through_ready_warps(self, warps):
        sched = LooseRoundRobin()
        picks = [sched.select(warps) for _ in range(8)]
        counts = {w.age: picks.count(w) for w in warps}
        assert all(count == 2 for count in counts.values())


class TestGTO:
    """GTO's last pick is its last issued warp: the SM issues every
    pick before it selects again, so the policy records its own picks
    (there is no per-issue hook)."""

    def test_greedy_sticks_with_last(self, warps):
        sched = GreedyThenOldest()
        first = sched.select(warps)
        assert sched.select(warps) is first

    def test_falls_back_to_oldest(self, warps):
        sched = GreedyThenOldest()
        sched.select_sole(warps[3])
        ready = warps[:3]  # last-issued warp not ready
        assert sched.select(ready) is warps[0]

    def test_retired_warp_not_chased(self, warps):
        sched = GreedyThenOldest()
        sched.select_sole(warps[2])
        sched.retired(warps[2])
        assert sched.select(warps) is warps[0]

    def test_last_pick_sticks(self, warps):
        """A fallback pick becomes the warp GTO sticks with, whether it
        came from ``select`` or ``select_sole``."""
        sched = GreedyThenOldest()
        sched.select_sole(warps[3])
        assert sched.select(warps[1:3]) is warps[1]
        assert sched.select(warps) is warps[1]
        sched.select_sole(warps[2])
        assert sched.select(warps) is warps[2]


class TestOldestFirst:
    def test_always_oldest(self, warps):
        sched = OldestFirst()
        assert sched.select(list(reversed(warps))) is warps[0]
        assert sched.select(warps[2:]) is warps[2]


class TestTwoLevel:
    def test_prefers_active_set(self):
        warps = [FakeWarp(i) for i in range(12)]
        sched = TwoLevel(active_size=4)
        picks = {sched.select(warps).age for _ in range(20)}
        assert picks <= {0, 1, 2, 3}

    def test_refills_when_active_warps_stall(self):
        warps = [FakeWarp(i) for i in range(12)]
        sched = TwoLevel(active_size=4)
        sched.select(warps)
        # The whole active set stalls: only 8..11 remain ready.
        ready = mark_ready(warps, warps[8:])
        pick = sched.select(ready)
        assert pick.age >= 8

    def test_order_identical_to_rebuild_implementation(self):
        """The persistent active set must reproduce the original
        rebuild-per-decision algorithm decision for decision."""

        class RebuildTwoLevel:
            # The pre-event-core implementation, verbatim.
            def __init__(self, active_size=8):
                self.active_size = active_size
                self._active = []
                self._pointer = 0

            def select(self, ready):
                ready_set = set(id(w) for w in ready)
                self._active = [
                    w for w in self._active if id(w) in ready_set
                ]
                if len(self._active) < self.active_size:
                    for warp in ready:
                        if warp not in self._active:
                            self._active.append(warp)
                            if len(self._active) == self.active_size:
                                break
                self._pointer = (self._pointer + 1) % len(self._active)
                return self._active[self._pointer]

        rng = random.Random(1234)
        warps = [FakeWarp(i) for i in range(24)]
        new = TwoLevel(active_size=8)
        old = RebuildTwoLevel(active_size=8)
        for _ in range(500):
            k = rng.randint(1, len(warps))
            ready = mark_ready(warps, sorted(
                rng.sample(warps, k), key=lambda w: w.age
            ))
            assert new.select(ready) is old.select(ready)

    def test_select_sole_matches_select(self):
        warps = [FakeWarp(i) for i in range(12)]
        a, b = TwoLevel(active_size=4), TwoLevel(active_size=4)
        a.select(warps)
        b.select(warps)
        sole = mark_ready(warps, [warps[5]])[0]
        assert a.select(list(sole for _ in range(1))) is b.select_sole(sole)
        assert a._active == b._active
        assert a._pointer == b._pointer
        # Idempotent: a monopolizing warp issues many times per call.
        assert b.select_sole(sole) is sole
        assert b._active == [sole]


class TestSelectSole:
    @pytest.mark.parametrize("name", ["lrr", "gto", "old", "2lv"])
    def test_state_equivalent_to_select(self, name, warps):
        """select_sole(w) must leave the policy exactly where
        select([w]) would, so decision streams stay identical."""
        a, b = build_scheduler(name), build_scheduler(name)
        # Put both policies in a non-trivial state first.
        for sched in (a, b):
            sched.select(warps)
        sole = mark_ready(warps, [warps[2]])[0]
        assert a.select([sole]) is b.select_sole(sole)
        assert a.__dict__ == b.__dict__
