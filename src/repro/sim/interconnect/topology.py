"""Interconnect topologies and their routing hop counts.

Four topologies from Table II.  Routing follows the paper's choices:
dimension-order for the mesh, destination-tag for the butterfly,
nearest-common-ancestor for the fat tree; the local crossbar is a
single-stage switch.  The timing model only needs the per-message hop
count, which each topology derives from its routing algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Topology:
    """Hop-count oracle for a fixed node population.

    Nodes ``0 .. num_sms-1`` are SMs; nodes ``num_sms ..`` are memory
    partitions.
    """

    name: str
    num_sms: int
    num_partitions: int

    @property
    def total_nodes(self) -> int:
        return self.num_sms + self.num_partitions

    def hops(self, src: int, dst: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def bisection_links(self) -> int | None:
        """Number of shared bisection channels, or ``None`` if the
        fabric is non-blocking (crossbar, fat tree)."""
        return None

    def average_hops(self) -> float:
        """Mean SM->partition hop count (diagnostic / tests)."""
        up, _ = route_table(self)
        return sum(map(sum, up)) / (self.num_sms * self.num_partitions)


class CrossbarTopology(Topology):
    """Single-stage local crossbar: every pair is one hop (the baseline)."""

    def hops(self, src: int, dst: int) -> int:
        return 1


class MeshTopology(Topology):
    """2D mesh with dimension-order (X then Y) routing.

    Nodes are numbered SMs first, then partitions, and laid row-major
    on the smallest square grid that fits: the partitions take the
    cells after the last SM, in the bottom rows.
    """

    def _side(self) -> int:
        return math.ceil(math.sqrt(self.total_nodes))

    def _coords(self, node: int) -> tuple[int, int]:
        side = self._side()
        return node % side, node // side

    def hops(self, src: int, dst: int) -> int:
        sx, sy = self._coords(src)
        dx, dy = self._coords(dst)
        # Dimension-order: |X distance| + |Y distance| links, plus the
        # ejection router.
        return abs(sx - dx) + abs(sy - dy) + 1

    def bisection_links(self) -> int:
        # A square mesh's bisection is one row of vertical links.
        return self._side()


class FatTreeTopology(Topology):
    """k-ary fat tree with nearest-common-ancestor routing (k = 4)."""

    ARITY = 4

    def _levels(self) -> int:
        return max(1, math.ceil(math.log(self.total_nodes, self.ARITY)))

    def hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 1
        # Climb until the two leaves share a subtree, then descend.
        up = 0
        a, b = src, dst
        for level in range(1, self._levels() + 1):
            a //= self.ARITY
            b //= self.ARITY
            up = level
            if a == b:
                break
        return 2 * up


class ButterflyTopology(Topology):
    """log2(N)-stage butterfly with destination-tag routing.

    Every packet crosses all stages, so the hop count is uniform.
    """

    def hops(self, src: int, dst: int) -> int:
        return max(1, math.ceil(math.log2(self.total_nodes)))

    def bisection_links(self) -> int:
        # Unidirectional butterfly: half the nodes' worth of channels
        # cross the middle stage.
        return max(1, self.total_nodes // 2)


_TOPOLOGIES = {
    "xbar": CrossbarTopology,
    "mesh": MeshTopology,
    "fattree": FatTreeTopology,
    "butterfly": ButterflyTopology,
}


@lru_cache(maxsize=64)
def route_table(topology: Topology) -> tuple[tuple, tuple]:
    """Hop counts of every leg the network carries, as ``(up, down)``.

    ``up[sm][p]`` is SM ``sm`` -> partition ``p`` and ``down[p][sm]``
    the reply leg; both equal :meth:`Topology.hops`.  Built once per
    distinct topology value and shared by every network using it.
    """
    sms, parts = range(topology.num_sms), range(topology.num_partitions)
    first = topology.num_sms
    up = tuple(tuple(topology.hops(sm, first + p) for p in parts)
               for sm in sms)
    down = tuple(tuple(topology.hops(first + p, sm) for sm in sms)
                 for p in parts)
    return up, down


def build_topology(name: str, num_sms: int, num_partitions: int) -> Topology:
    """Construct a topology by Table II name."""
    try:
        cls = _TOPOLOGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; known: {sorted(_TOPOLOGIES)}"
        ) from None
    return cls(name, num_sms, num_partitions)
