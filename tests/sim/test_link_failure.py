"""Tests for link up/down failure behaviour."""

from repro.sim.address import Subnet
from repro.sim.link import SimplexLink
from repro.sim.node import Router
from repro.sim.packet import FlowKey, Packet
from repro.sim.routing import RoutingTable


class _Cap:
    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.got = []

    def receive(self, packet, via=None):
        self.got.append((self.sim.now, packet))

    def attach_link(self, link):
        pass


def pkt(seq=0):
    return Packet(flow=FlowKey(1, 2, 3, 4), seq=seq)


class TestLinkFailure:
    def test_down_link_drops_offers(self, sim):
        src, dst = _Cap(sim, "a"), _Cap(sim, "b")
        link = SimplexLink(sim, src, dst)
        link.set_down()
        assert not link.send(pkt())
        assert link.failure_drops == 1
        sim.run()
        assert dst.got == []

    def test_up_by_default(self, sim):
        src, dst = _Cap(sim, "a"), _Cap(sim, "b")
        assert SimplexLink(sim, src, dst).is_up

    def test_in_flight_packets_still_arrive(self, sim):
        src, dst = _Cap(sim, "a"), _Cap(sim, "b")
        link = SimplexLink(sim, src, dst, 8e6, 0.05)
        link.send(pkt(0))  # on the wire before the failure
        link.set_down()
        sim.run()
        assert len(dst.got) == 1

    def test_recovery_restores_service(self, sim):
        src, dst = _Cap(sim, "a"), _Cap(sim, "b")
        link = SimplexLink(sim, src, dst)
        link.set_down()
        link.send(pkt(0))
        link.set_up()
        assert link.send(pkt(1))
        sim.run()
        assert [p.seq for _, p in dst.got] == [1]

    def test_down_is_honoured_through_a_memoised_route(self, sim):
        """A router that already forwarded to a destination (and memoised
        where it goes) must still see the link fail and recover."""
        a, b = Router(sim, "a"), _Cap(sim, "b")
        link = SimplexLink(sim, a, b)
        a.attach_link(link)
        a.routing_table = RoutingTable()
        a.routing_table.add_route(Subnet(0, 0), "b")
        a.receive(pkt(0))
        link.set_down()
        a.receive(pkt(1))
        link.set_up()
        a.receive(pkt(2))
        sim.run()
        assert link.failure_drops == 1
        assert a.packets_forwarded == 3  # forwarding offered all three
        assert [p.seq for _, p in b.got] == [0, 2]

    def test_failed_atr_path_stalls_defense_scenario(self):
        """End-to-end: failing an ingress uplink silences that ingress
        entirely (its traffic — attack and legit — stops reaching the
        victim), while other ingresses keep flowing."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.scenario import build_scenario

        cfg = ExperimentConfig(total_flows=10, n_routers=10, duration=2.5,
                               seed=91)
        sc = build_scenario(cfg)
        victim_before = sc.victim_collector
        # Fail one ingress uplink before traffic starts.
        sc.topology.ingress_uplink(sc.topology.ingress_names[0]).set_down()
        sc.sim.run(until=cfg.duration)
        failed_link = sc.topology.ingress_uplink(sc.topology.ingress_names[0])
        assert failed_link.failure_drops > 0
        assert failed_link.packets_sent == 0
        # The victim still receives from the healthy ingresses.
        assert victim_before.attack_packets + victim_before.legit_packets > 0
