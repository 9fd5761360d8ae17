"""Tests for repro.sim.topology."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.node import Host, Router
from repro.sim.packet import (
    FlowKey,
    Packet,
    enable_packet_pool,
    packet_pool_stats,
)
from repro.sim.topology import (
    _HostDelivery,
    build_dumbbell,
    build_star_domain,
    build_transit_stub_domain,
    build_tree_domain,
)


class _Recorder:
    def __init__(self):
        self.packets = []

    def handle_packet(self, packet, now):
        self.packets.append(packet)


def _assert_end_to_end(topology):
    """A packet from each src host reaches the victim."""
    victim = topology.victim_host
    sink = _Recorder()
    victim.bind_port(80, sink)
    senders = 0
    for i, _ in enumerate(topology.ingress_names):
        host = topology.hosts.get(f"src{i}")
        if host is None:
            continue
        senders += 1
        flow = FlowKey(host.address, victim.address, 1000 + i, 80)
        host.send(Packet(flow=flow))
    topology.sim.run(until=2.0)
    assert len(sink.packets) == senders


class TestStarDomain:
    def test_end_to_end_delivery(self):
        _assert_end_to_end(build_star_domain(n_ingress=4))

    def test_counts(self):
        topo = build_star_domain(n_ingress=5)
        assert len(topo.ingress_names) == 5
        assert len(topo.routers) == 6  # 5 ingress + last hop
        assert topo.victim_router_name == "lasthop"

    def test_victim_access_link(self):
        topo = build_star_domain(n_ingress=2)
        link = topo.victim_access_link()
        assert link.dst.name == "victim"

    def test_ingress_uplink_points_at_core(self):
        topo = build_star_domain(n_ingress=2)
        assert topo.ingress_uplink("ingress0").dst.name == "lasthop"

    def test_rejects_zero_ingress(self):
        with pytest.raises(ValueError):
            build_star_domain(n_ingress=0)


class TestTreeDomain:
    def test_end_to_end_delivery(self):
        _assert_end_to_end(build_tree_domain(depth=2, fanout=2))

    def test_leaf_count(self):
        topo = build_tree_domain(depth=2, fanout=3)
        assert len(topo.ingress_names) == 9

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            build_tree_domain(depth=0)


class TestTransitStubDomain:
    def test_end_to_end_delivery(self):
        _assert_end_to_end(build_transit_stub_domain(n_routers=12))

    def test_router_count_matches_n(self):
        topo = build_transit_stub_domain(n_routers=20)
        assert len(topo.routers) == 20

    def test_ingresses_have_subnets(self):
        topo = build_transit_stub_domain(n_routers=15)
        for name in topo.ingress_names:
            assert name in topo.subnet_of_router

    def test_larger_domains(self):
        topo = build_transit_stub_domain(n_routers=80)
        assert len(topo.routers) == 80
        _assert_end_to_end(topo)

    def test_rejects_tiny_domain(self):
        with pytest.raises(ValueError):
            build_transit_stub_domain(n_routers=2)

    def test_address_space_legality(self):
        topo = build_transit_stub_domain(n_routers=12)
        for name, subnet in topo.subnet_of_router.items():
            assert topo.address_space.is_legal_source(subnet.host(1))


class TestDumbbell:
    def test_end_to_end_delivery(self):
        topo = build_dumbbell()
        victim = topo.victim_host
        sink = _Recorder()
        victim.bind_port(80, sink)
        src = topo.hosts["src0"]
        src.send(Packet(flow=FlowKey(src.address, victim.address, 1000, 80)))
        topo.sim.run(until=1.0)
        assert len(sink.packets) == 1

    def test_bottleneck_is_core_link(self):
        topo = build_dumbbell(bottleneck_bps=1e6)
        link = topo.routers["left"].link_to("lasthop")
        assert link.bandwidth_bps == 1e6


class TestHostDelivery:
    """The router-side last hop ``attach_host`` installs."""

    def test_binds_the_access_link_once(self, monkeypatch):
        topo = build_dumbbell()
        victim, router = topo.victim_host, topo.routers["lasthop"]
        sink = _Recorder()
        victim.bind_port(80, sink)
        lookups = []
        real_link_to = Router.link_to

        def link_to(self, name):
            if self is router:
                lookups.append(name)
            return real_link_to(self, name)

        # A slotted router takes no per-instance method: patch the class.
        monkeypatch.setattr(Router, "link_to", link_to)
        for _ in range(3):
            router.receive(Packet(flow=FlowKey(1, victim.address, 1000, 80)))
        topo.sim.run(until=1.0)
        assert len(sink.packets) == 3
        assert lookups == [victim.name]

    def test_no_access_link_drops_releases_and_counts(self):
        sim = Simulator()
        router = Router(sim, "r")
        host = Host(sim, "h", 0x0A000001)
        router.add_local_delivery(lambda ip: True, _HostDelivery(host, router))
        enable_packet_pool(True)
        try:
            for _ in range(2):
                router.receive(Packet.acquire(flow=FlowKey(1, host.address, 3, 80)))
            assert packet_pool_stats()["released"] == 2
        finally:
            enable_packet_pool(False)
        assert router.packets_dropped_no_route == 2
        assert sim.pending() == 0
