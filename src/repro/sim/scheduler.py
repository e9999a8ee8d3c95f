"""Warp schedulers: LRR, GTO, OLD, and two-level (Fig 19).

A scheduler picks among the warps that are ready to issue this cycle.
All four policies from Table I are implemented with the semantics
Accel-Sim documents:

- **LRR** (loose round robin, the baseline) — rotate through warps.
- **GTO** (greedy-then-oldest) — keep issuing the same warp until it
  stalls, then fall back to the oldest ready warp.
- **OLD** (oldest first) — always the oldest ready warp.
- **2LV** (two level) — a small active set issues round robin; warps
  that hit long-latency operations are demoted and replaced from the
  pending pool.

The ready-set API (see :mod:`repro.sim.sm`): ``select`` receives the
ready warps in residence order (ascending ``age``); each ready warp has
``in_ready`` set, so membership checks are attribute reads, not set
rebuilds.  ``select_sole`` is the fast path for a one-warp ready set —
it must leave the policy in exactly the state ``select([warp])`` would,
and stay idempotent: when a sole warp blocks and is again the next to
issue, the issue loop reissues it without selecting it again.

There is no per-issue hook.  Every pick is issued before the SM makes
its next pick (a deferred decision executes before the loop selects
again), so a policy that needs the last issued warp — GTO — records
its own pick in ``select``/``select_sole``.  ``retired`` is the only
other call: the SM makes it when a warp exits.
"""

from __future__ import annotations

from repro.sim.warp import Warp


class WarpScheduler:
    """Base policy; subclasses implement :meth:`select`."""

    def select(self, ready: list[Warp]) -> Warp:  # pragma: no cover - abstract
        raise NotImplementedError

    def select_sole(self, warp: Warp) -> Warp:
        """Equivalent of ``select([warp])`` when only one warp is ready."""
        return warp

    def retired(self, warp: Warp) -> None:
        """Hook called when ``warp`` exits."""


class LooseRoundRobin(WarpScheduler):
    """Rotate fairly among ready warps."""

    def __init__(self):
        self._pointer = 0

    def select(self, ready: list[Warp]) -> Warp:
        self._pointer = (self._pointer + 1) % len(ready)
        return ready[self._pointer]

    def select_sole(self, warp: Warp) -> Warp:
        self._pointer = 0
        return warp


class GreedyThenOldest(WarpScheduler):
    """Stick with the last warp while it stays ready; else oldest.

    The last pick is the last issued warp: the SM issues every pick
    before it selects again (see the module docstring).
    """

    def __init__(self):
        self._last: Warp | None = None

    def select(self, ready: list[Warp]) -> Warp:
        last = self._last
        if last is not None and not last.exited:
            for warp in ready:
                if warp is last:
                    return warp
        warp = self._last = min(ready, key=lambda w: w.age)
        return warp

    def select_sole(self, warp: Warp) -> Warp:
        self._last = warp
        return warp

    def retired(self, warp: Warp) -> None:
        if self._last is warp:
            self._last = None


class OldestFirst(WarpScheduler):
    """Always issue the oldest ready warp."""

    def select(self, ready: list[Warp]) -> Warp:
        return min(ready, key=lambda w: w.age)


class TwoLevel(WarpScheduler):
    """Active set of ``active_size`` warps issuing LRR; demote on stall.

    Demotion happens implicitly: a warp that is not ready (long-latency
    operation outstanding) is dropped from the active set when the set
    is refilled.  The active set is persistent across decisions —
    pruning walks the (bounded-size) active list checking ``in_ready``
    flags, and refill membership uses an id-set, so maintenance is O(1)
    in the number of resident warps.
    """

    def __init__(self, active_size: int = 8):
        self.active_size = active_size
        self._active: list[Warp] = []
        self._active_ids: set[int] = set()
        self._pointer = 0

    def select(self, ready: list[Warp]) -> Warp:
        active = self._active
        ids = self._active_ids
        # Demote active warps that stalled (order of survivors kept).
        if any(not w.in_ready for w in active):
            active = [w for w in active if w.in_ready]
            self._active = active
            ids.clear()
            ids.update(id(w) for w in active)
        if len(active) < self.active_size:
            for warp in ready:
                wid = id(warp)
                if wid not in ids:
                    active.append(warp)
                    ids.add(wid)
                    if len(active) == self.active_size:
                        break
        self._pointer = (self._pointer + 1) % len(active)
        return active[self._pointer]

    def select_sole(self, warp: Warp) -> Warp:
        active = self._active
        if len(active) != 1 or active[0] is not warp:
            active.clear()
            active.append(warp)
            ids = self._active_ids
            ids.clear()
            ids.add(id(warp))
        self._pointer = 0
        return warp

    def retired(self, warp: Warp) -> None:
        if id(warp) in self._active_ids:  # pragma: no cover - defensive
            self._active.remove(warp)
            self._active_ids.discard(id(warp))


_POLICIES = {
    "lrr": LooseRoundRobin,
    "gto": GreedyThenOldest,
    "old": OldestFirst,
    "2lv": TwoLevel,
}


def build_scheduler(name: str) -> WarpScheduler:
    """Instantiate a scheduler by Table I name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; known: {sorted(_POLICIES)}"
        ) from None
