"""Tests for repro.sim.node."""

import pytest

from repro.sim.link import SimplexLink
from repro.sim.node import Host, Router
from repro.sim.packet import FlowKey, Packet, PacketType
from repro.sim.routing import RoutingTable
from repro.sim.address import Subnet


class _Recorder:
    def __init__(self):
        self.packets = []

    def handle_packet(self, packet, now):
        self.packets.append(packet)


class TestHost:
    def test_port_dispatch(self, sim):
        host = Host(sim, "h", 0x0A000001)
        agent = _Recorder()
        host.bind_port(80, agent)
        host.receive(Packet(flow=FlowKey(1, 0x0A000001, 9, 80)))
        assert len(agent.packets) == 1

    def test_default_handler_catches_unbound(self, sim):
        host = Host(sim, "h", 1)
        fallback = _Recorder()
        host.set_default_handler(fallback)
        host.receive(Packet(flow=FlowKey(1, 1, 9, 4242)))
        assert len(fallback.packets) == 1

    def test_unhandled_counted(self, sim):
        host = Host(sim, "h", 1)
        host.receive(Packet(flow=FlowKey(1, 1, 9, 4242)))
        assert host.unhandled_packets == 1

    def test_double_bind_rejected(self, sim):
        host = Host(sim, "h", 1)
        host.bind_port(80, _Recorder())
        with pytest.raises(ValueError):
            host.bind_port(80, _Recorder())

    def test_unbind(self, sim):
        host = Host(sim, "h", 1)
        host.bind_port(80, _Recorder())
        host.unbind_port(80)
        host.receive(Packet(flow=FlowKey(1, 1, 9, 80)))
        assert host.unhandled_packets == 1

    def test_send_requires_gateway(self, sim):
        host = Host(sim, "h", 1)
        with pytest.raises(RuntimeError):
            host.send(Packet(flow=FlowKey(1, 2, 3, 4)))

    def test_send_uses_gateway_link(self, sim):
        host = Host(sim, "h", 1)
        router = Router(sim, "r")
        link = SimplexLink(sim, host, router)
        host.attach_link(link)
        host.gateway = router
        assert host.send(Packet(flow=FlowKey(1, 2, 3, 4)))
        assert link.packets_offered == 1

    def test_send_follows_a_reassigned_gateway(self, sim):
        host = Host(sim, "h", 1)
        first, second = Router(sim, "r1"), Router(sim, "r2")
        to_first, to_second = SimplexLink(sim, host, first), SimplexLink(sim, host, second)
        host.attach_link(to_first)
        host.attach_link(to_second)
        host.gateway = first
        assert host.send(Packet(flow=FlowKey(1, 2, 3, 4)))
        host.gateway = second
        assert host.send(Packet(flow=FlowKey(1, 2, 3, 4)))
        assert (to_first.packets_offered, to_second.packets_offered) == (1, 1)

    def test_send_follows_a_replaced_uplink(self, sim):
        host = Host(sim, "h", 1)
        router = Router(sim, "r")
        original, replacement = SimplexLink(sim, host, router), SimplexLink(sim, host, router)
        host.gateway = router
        host.attach_link(original)
        assert host.send(Packet(flow=FlowKey(1, 2, 3, 4)))
        host.attach_link(replacement)  # same neighbour, new link
        assert host.send(Packet(flow=FlowKey(1, 2, 3, 4)))
        assert (original.packets_offered, replacement.packets_offered) == (1, 1)

    def test_send_errors_survive_a_working_uplink(self, sim):
        host = Host(sim, "h", 1)
        router = Router(sim, "r")
        host.attach_link(SimplexLink(sim, host, router))
        host.gateway = router
        assert host.send(Packet(flow=FlowKey(1, 2, 3, 4)))
        host.gateway = Router(sim, "elsewhere")
        with pytest.raises(RuntimeError, match="no link to its gateway"):
            host.send(Packet(flow=FlowKey(1, 2, 3, 4)))
        host.gateway = None
        with pytest.raises(RuntimeError, match="no gateway"):
            host.send(Packet(flow=FlowKey(1, 2, 3, 4)))

    def test_attach_foreign_link_rejected(self, sim):
        host = Host(sim, "h", 1)
        other = Host(sim, "o", 2)
        router = Router(sim, "r")
        link = SimplexLink(sim, other, router)
        with pytest.raises(ValueError):
            host.attach_link(link)


class TestRouter:
    def _two_routers(self, sim):
        a, b = Router(sim, "a"), Router(sim, "b")
        link = SimplexLink(sim, a, b)
        a.attach_link(link)
        return a, b, link

    def test_forwards_via_routing_table(self, sim):
        a, b, link = self._two_routers(sim)
        table = RoutingTable()
        table.add_route(Subnet(0x0A000000, 24), "b")
        a.routing_table = table
        a.receive(Packet(flow=FlowKey(1, 0x0A000005, 3, 4)))
        assert a.packets_forwarded == 1
        assert link.packets_offered == 1

    def test_drops_without_route(self, sim):
        a, _, _ = self._two_routers(sim)
        a.routing_table = RoutingTable()
        a.receive(Packet(flow=FlowKey(1, 0x0B000005, 3, 4)))
        assert a.packets_dropped_no_route == 1

    def test_drops_without_table(self, sim):
        a = Router(sim, "a")
        a.receive(Packet(flow=FlowKey(1, 2, 3, 4)))
        assert a.packets_dropped_no_route == 1

    def test_drops_when_next_hop_link_missing(self, sim):
        a = Router(sim, "a")
        table = RoutingTable()
        table.add_route(Subnet(0x0A000000, 24), "ghost")
        a.routing_table = table
        a.receive(Packet(flow=FlowKey(1, 0x0A000005, 3, 4)))
        assert a.packets_dropped_no_route == 1

    def test_local_delivery_bypasses_forwarding(self, sim):
        a, _, _ = self._two_routers(sim)
        agent = _Recorder()
        a.add_local_delivery(lambda ip: ip == 42, agent)
        a.receive(Packet(flow=FlowKey(1, 42, 3, 4)))
        assert len(agent.packets) == 1
        assert a.packets_delivered == 1

    def test_control_handler(self, sim):
        a = Router(sim, "a", address=777)
        handler = _Recorder()
        a.add_control_handler(handler)
        a.receive(Packet(flow=FlowKey(1, 777, 0, 0), ptype=PacketType.CONTROL))
        assert len(handler.packets) == 1

    def test_control_to_other_address_forwarded(self, sim):
        a = Router(sim, "a", address=777)
        handler = _Recorder()
        a.add_control_handler(handler)
        a.routing_table = RoutingTable()
        a.receive(Packet(flow=FlowKey(1, 888, 0, 0), ptype=PacketType.CONTROL))
        assert handler.packets == []
        assert a.packets_dropped_no_route == 1


class TestRouterMemo:
    """The per-destination memo must never outlive what it was resolved
    from: after traffic has flowed, each mutation moves the next packet."""

    DST = 0x0A000005

    def _fan(self, sim):
        """Router a with links to b and c, routing DST's /24 via b, and
        one packet already forwarded (so the memo holds DST)."""
        a, b, c = Router(sim, "a"), Router(sim, "b"), Router(sim, "c")
        to_b, to_c = SimplexLink(sim, a, b), SimplexLink(sim, a, c)
        a.attach_link(to_b)
        a.attach_link(to_c)
        table = RoutingTable()
        table.add_route(Subnet(0x0A000000, 24), "b")
        a.routing_table = table
        self._send(a)
        assert (to_b.packets_offered, to_c.packets_offered) == (1, 0)
        return a, table, to_b, to_c

    def _send(self, router, dst=DST):
        router.receive(Packet(flow=FlowKey(1, dst, 3, 4)))

    def test_add_route_moves_the_next_packet(self, sim):
        a, table, to_b, to_c = self._fan(sim)
        table.add_route(Subnet(self.DST, 32), "c")  # a longer prefix wins
        self._send(a)
        assert (to_b.packets_offered, to_c.packets_offered) == (1, 1)

    def test_set_default_moves_the_next_packet(self, sim):
        a, table, to_b, to_c = self._fan(sim)
        self._send(a, dst=0x0B000001)  # no route: memoized as a drop
        assert a.packets_dropped_no_route == 1
        table.set_default("c")
        self._send(a, dst=0x0B000001)
        assert a.packets_dropped_no_route == 1
        assert to_c.packets_offered == 1

    def test_add_local_delivery_moves_the_next_packet(self, sim):
        a, _, to_b, _ = self._fan(sim)
        agent = _Recorder()
        a.add_local_delivery(lambda ip: ip == self.DST, agent)
        self._send(a)
        assert len(agent.packets) == 1
        assert to_b.packets_offered == 1

    def test_attach_link_moves_the_next_packet(self, sim):
        a, _, to_b, _ = self._fan(sim)
        replacement = SimplexLink(sim, a, to_b.dst)
        a.attach_link(replacement)  # same neighbour, new link
        self._send(a)
        assert (to_b.packets_offered, replacement.packets_offered) == (1, 1)

    def test_table_reassignment_moves_the_next_packet(self, sim):
        a, old_table, to_b, to_c = self._fan(sim)
        table = RoutingTable()
        table.add_route(Subnet(0x0A000000, 24), "c")
        a.routing_table = table
        self._send(a)
        assert (to_b.packets_offered, to_c.packets_offered) == (1, 1)
        # The replaced table no longer reaches this router ...
        old_table.add_route(Subnet(self.DST, 32), "b")
        self._send(a)
        assert (to_b.packets_offered, to_c.packets_offered) == (1, 2)
        # ... and the new one still does.
        table.add_route(Subnet(self.DST, 32), "b")
        self._send(a)
        assert (to_b.packets_offered, to_c.packets_offered) == (2, 2)

    def test_table_removal_drops_the_next_packet(self, sim):
        a, _, to_b, _ = self._fan(sim)
        a.routing_table = None
        self._send(a)
        assert a.packets_dropped_no_route == 1
        assert to_b.packets_offered == 1

    def test_rotating_destinations_never_outgrow_the_bound(self, sim):
        a, _, to_b, _ = self._fan(sim)
        a.routing_table.set_default("b")
        peak = 0
        # One destination in each of 100,000 /24 blocks: more blocks
        # than the memo may hold.
        for block in range(100_000):
            self._send(a, dst=0x20000000 + (block << 8))
            peak = max(peak, len(a._memo))
        assert peak == Router._MEMO_MAX
        assert len(a._memo) <= Router._MEMO_MAX
        assert to_b.packets_offered == 100_001


class TestRouterMemoKey:
    """The memo keys a destination by its block under the longest prefix
    the router routes or delivers on; only a /32 or a bare predicate
    makes the key the exact address."""

    BLOCK = 0x0A000000  # the /24 routed via b

    def _router(self, sim):
        a, b, c = Router(sim, "a"), Router(sim, "b"), Router(sim, "c")
        to_b, to_c = SimplexLink(sim, a, b), SimplexLink(sim, a, c)
        a.attach_link(to_b)
        a.attach_link(to_c)
        table = RoutingTable()
        table.add_routes([
            (Subnet(self.BLOCK, 24), "b"), (Subnet(0x0A000100, 24), "c"),
        ])
        a.routing_table = table
        return a, to_b, to_c

    def _spray(self, router, count=1_000):
        """``count`` packets over every address of the /24."""
        for i in range(count):
            router.receive(Packet(flow=FlowKey(1, self.BLOCK + i % 256, 3, 4)))

    def test_a_block_of_destinations_leaves_one_entry(self, sim):
        a, to_b, to_c = self._router(sim)
        self._spray(a)
        assert len(a._memo) == 1
        assert (to_b.packets_offered, to_c.packets_offered) == (1_000, 0)

    def test_a_host_route_makes_the_key_exact(self, sim):
        a, to_b, to_c = self._router(sim)
        self._spray(a, count=10)  # memoized under the /24 key
        a.routing_table.add_route(Subnet(self.BLOCK + 7, 32), "c")
        self._spray(a)
        assert len(a._memo) == 256
        assert to_c.packets_offered == 4  # 7, 263, 519, 775
        assert to_b.packets_offered == 10 + 996

    def test_a_predicate_delivery_makes_the_key_exact(self, sim):
        a, to_b, _ = self._router(sim)
        agent = _Recorder()
        a.add_local_delivery(lambda ip: ip == self.BLOCK + 7, agent)
        self._spray(a)
        assert len(a._memo) == 256
        assert len(agent.packets) == 4
        assert to_b.packets_offered == 996

    def test_a_subnet_delivery_keys_by_its_prefix(self, sim):
        a, to_b, _ = self._router(sim)
        agent = _Recorder()
        a.add_local_delivery(Subnet(self.BLOCK + 16, 28), agent)
        self._spray(a)
        assert len(a._memo) == 16  # the /24 in /28 blocks
        assert len(agent.packets) == 16 * 4
        assert to_b.packets_offered == 1_000 - 16 * 4
