"""Tests for topologies and the network timing model."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.config import NoCConfig
from repro.sim.interconnect import Network, build_topology
from repro.sim.interconnect.topology import route_table

TOPOLOGY_NAMES = ["xbar", "mesh", "fattree", "butterfly"]


class TestTopologies:
    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            build_topology("torus", 8, 4)

    def test_crossbar_is_single_hop(self):
        topo = build_topology("xbar", 16, 8)
        for sm in range(16):
            assert topo.hops(sm, 16 + sm % 8) == 1

    def test_mesh_hops_manhattan(self):
        topo = build_topology("mesh", 14, 2)  # 16 nodes, 4x4 grid
        assert topo.hops(0, 15) == 7  # corner to corner: 3+3+1
        assert topo.hops(0, 1) == 2
        assert topo.hops(5, 5) == 1

    def test_mesh_hops_symmetric(self):
        topo = build_topology("mesh", 14, 2)
        for a in range(16):
            for b in range(16):
                assert topo.hops(a, b) == topo.hops(b, a)

    def test_butterfly_uniform_hops(self):
        topo = build_topology("butterfly", 14, 2)
        hops = {topo.hops(a, b) for a in range(16) for b in range(16)}
        assert hops == {4}  # log2(16)

    def test_fattree_nearest_common_ancestor(self):
        topo = build_topology("fattree", 14, 2)
        assert topo.hops(0, 1) == 2   # siblings under one switch
        assert topo.hops(0, 15) > topo.hops(0, 1)

    def test_average_hops_ordering(self):
        # The crossbar beats every multi-hop topology on average.
        xbar = build_topology("xbar", 16, 8).average_hops()
        mesh = build_topology("mesh", 16, 8).average_hops()
        bfly = build_topology("butterfly", 16, 8).average_hops()
        assert xbar < mesh
        assert xbar < bfly

    def test_bisection_links(self):
        assert build_topology("xbar", 16, 8).bisection_links() is None
        assert build_topology("mesh", 14, 2).bisection_links() == 4
        assert build_topology("butterfly", 14, 2).bisection_links() == 8

    @given(st.sampled_from(["xbar", "mesh", "fattree", "butterfly"]),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=40)
    def test_hops_positive(self, name, sms, parts):
        topo = build_topology(name, sms, parts)
        for sm in range(0, sms, max(1, sms // 3)):
            for p in range(parts):
                assert topo.hops(sm, sms + p) >= 1


class TestRouteTable:
    """The network reads hop counts from a per-topology table; every
    leg must equal the routing algorithm's own answer."""

    # (num_sms, num_partitions): the baseline machine, square and
    # non-square meshes, a lone SM and more partitions than SMs.
    POPULATIONS = [(78, 16), (14, 2), (16, 8), (5, 3), (1, 1), (2, 7),
                   (30, 6)]

    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    @pytest.mark.parametrize("sms,parts", POPULATIONS)
    def test_legs_equal_hops(self, name, sms, parts):
        topo = build_topology(name, sms, parts)
        up, down = route_table(topo)
        assert len(up) == sms and len(down) == parts
        for sm in range(sms):
            for p in range(parts):
                assert up[sm][p] == topo.hops(sm, sms + p)
                assert down[p][sm] == topo.hops(sms + p, sm)

    def test_shared_per_topology_value(self):
        a = Network(NoCConfig(topology="mesh"), 14, 2)
        b = Network(NoCConfig(topology="mesh", router_delay=8), 14, 2)
        assert route_table(a.topology) is route_table(b.topology)


class TestNetworkTiming:
    def make(self, **noc_kwargs):
        return Network(NoCConfig(**noc_kwargs), num_sms=4, num_partitions=2)

    def test_request_response_complete(self):
        net = self.make()
        at_l2 = net.request(0, 1, now=0)
        back = net.response(1, 0, now=at_l2)
        assert back > at_l2 > 0

    def test_wider_channel_is_faster(self):
        slow = self.make(channel_bytes=8)
        fast = self.make(channel_bytes=40)
        assert slow.response(0, 1, 0) > fast.response(0, 1, 0)

    def test_router_delay_adds_latency(self):
        base = self.make(topology="mesh", router_delay=0)
        delayed = self.make(topology="mesh", router_delay=8)
        assert delayed.request(0, 1, 0) > base.request(0, 1, 0)

    def test_mesh_slower_than_crossbar(self):
        xbar = self.make(topology="xbar")
        mesh = self.make(topology="mesh")
        assert mesh.request(0, 1, 0) >= xbar.request(0, 1, 0)

    def test_port_contention_serializes(self):
        net = self.make()
        first = net.request(0, 0, now=0)
        second = net.request(0, 1, now=0)  # same injection port
        assert second > first - 1  # delayed behind the first message
        assert net.stats.contention_cycles > 0

    def test_distinct_ports_parallel(self):
        net = self.make()
        a = net.request(0, 0, now=0)
        b = net.request(1, 1, now=0)
        assert b == a  # symmetric paths, no shared port

    def test_stats_accumulate(self):
        net = self.make()
        net.request(0, 0, 0, store_bytes=128)
        net.response(0, 0, 100)
        assert net.stats.messages == 2
        assert net.stats.bytes > 256
        assert net.stats.average_latency > 0

    @given(st.sampled_from(TOPOLOGY_NAMES), st.integers(0, 8),
           st.sampled_from([8, 16, 40]),
           st.lists(st.tuples(st.booleans(), st.integers(0, 5),
                              st.integers(0, 2), st.integers(0, 300),
                              st.sampled_from([0, 128])), max_size=30))
    @settings(max_examples=60)
    def test_matches_reference_model(self, name, delay, width, messages):
        """Route tables and the per-size serialization cache change no
        timing: every arrival equals the model computed from scratch."""
        config = NoCConfig(topology=name, router_delay=delay,
                           channel_bytes=width)
        net = Network(config, num_sms=6, num_partitions=3)
        inject, eject = [0] * 9, [0] * 9
        for is_request, sm, p, now, payload in messages:
            src, dst = (sm, 6 + p) if is_request else (6 + p, sm)
            ser = max(1, math.ceil((payload + 8) / width))
            start = max(now, inject[src], eject[dst])
            inject[src] = eject[dst] = start + ser
            hops = net.topology.hops(src, dst)
            expected = start + hops * ser * (1 + delay) + config.base_latency
            got = (net.request(sm, p, now, payload) if is_request
                   else net.response(p, sm, now, payload))
            assert got == expected

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            NoCConfig(topology="ring")
        with pytest.raises(ValueError):
            NoCConfig(channel_bytes=0)
