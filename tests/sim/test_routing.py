"""Tests for repro.sim.routing."""

import pytest

from repro.sim.address import Subnet
from repro.sim.link import SimplexLink
from repro.sim.node import Router
from repro.sim.routing import RoutingTable, build_static_routes


class TestRoutingTable:
    def test_longest_prefix_match(self):
        t = RoutingTable()
        t.add_route(Subnet(0x0A000000, 8), "coarse")
        t.add_route(Subnet(0x0A010000, 16), "fine")
        assert t.next_hop(0x0A010203) == "fine"
        assert t.next_hop(0x0A990203) == "coarse"

    def test_default_route_fallback(self):
        t = RoutingTable()
        t.set_default("gw")
        assert t.next_hop(0x01020304) == "gw"

    def test_no_match_returns_none(self):
        assert RoutingTable().next_hop(1) is None

    def test_routes_sorted_by_prefix(self):
        t = RoutingTable()
        t.add_route(Subnet(0x0A000000, 8), "a")
        t.add_route(Subnet(0x0A000000, 24), "b")
        assert t.routes()[0][0].prefix_len == 24

    def test_len(self):
        t = RoutingTable()
        t.add_route(Subnet(0x0A000000, 24), "x")
        assert len(t) == 1

    def test_a_subnet_installed_twice_keeps_its_first_hop(self):
        t = RoutingTable()
        t.add_route(Subnet(0x0A000000, 24), "first")
        t.add_routes([(Subnet(0x0A000000, 24), "second"),
                      (Subnet(0x0A010000, 24), "a"), (Subnet(0x0A010000, 24), "b")])
        assert t.next_hop(0x0A000001) == "first"
        assert t.next_hop(0x0A010001) == "a"
        assert len(t) == 2  # each subnet is listed once, with the hop it keeps
        assert t.routes() == ((Subnet(0x0A000000, 24), "first"),
                              (Subnet(0x0A010000, 24), "a"))

    def test_add_routes_is_add_route_per_route(self):
        routes = [(Subnet(0x0A000000, 8), "coarse"), (Subnet(0x0A010000, 16), "fine"),
                  (Subnet(0x0A010200, 24), "finer"), (Subnet(0x0A000000, 8), "again")]
        one_by_one, batched = RoutingTable(), RoutingTable()
        for subnet, hop in routes:
            one_by_one.add_route(subnet, hop)
        batched.add_routes(iter(routes))
        assert batched.routes() == one_by_one.routes()
        assert [p.prefix_len for p, _ in batched.routes()] == [24, 16, 8]
        for address in (0x0A010203, 0x0A010303, 0x0A990203, 0x0B000000):
            assert batched.next_hop(address) == one_by_one.next_hop(address)
        assert batched.next_hop(0x0A010203) == "finer"

    def test_watchers_hear_a_batch_once_and_an_empty_one_never(self):
        t = RoutingTable()
        heard = []
        t.watch(lambda: heard.append(len(t)))
        t.add_routes([(Subnet(0x0A000000, 24), "a"), (Subnet(0x0A010000, 16), "b")])
        assert heard == [2]
        t.add_routes([])
        assert heard == [2]
        t.add_route(Subnet(0x0A020000, 24), "c")
        assert heard == [2, 3]


def _build_line(sim):
    """a - b - c with one subnet at each end."""
    routers = {name: Router(sim, name) for name in "abc"}
    graph = {"a": {"b": 1.0}, "b": {"a": 1.0, "c": 1.0}, "c": {"b": 1.0}}
    for u, v in (("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")):
        link = SimplexLink(sim, routers[u], routers[v])
        routers[u].attach_link(link)
    subnets = {"a": Subnet(0x0A000000, 24), "c": Subnet(0x0A010000, 24)}
    return routers, graph, subnets


class TestBuildStaticRoutes:
    def test_installs_first_hop(self, sim):
        routers, graph, subnets = _build_line(sim)
        build_static_routes(graph, routers, subnets.items())
        assert routers["a"].routing_table.next_hop(0x0A010005) == "b"
        assert routers["b"].routing_table.next_hop(0x0A010005) == "c"
        assert routers["c"].routing_table.next_hop(0x0A000005) == "b"

    def test_attachment_router_has_no_self_route(self, sim):
        routers, graph, subnets = _build_line(sim)
        build_static_routes(graph, routers, subnets.items())
        # Router a owns subnet a: no route needed (local delivery).
        assert routers["a"].routing_table.next_hop(0x0A000005) is None

    def test_every_router_gets_a_table(self, sim):
        routers, graph, subnets = _build_line(sim)
        build_static_routes(graph, routers, subnets.items())
        assert all(r.routing_table is not None for r in routers.values())

    def test_unknown_attachment_rejected(self, sim):
        routers, graph, _ = _build_line(sim)
        with pytest.raises(ValueError):
            build_static_routes(
                graph, routers, [("ghost", Subnet(0x0A020000, 24))]
            )

    def test_shortest_path_chosen(self, sim):
        # Square with a shortcut: a-b-d (2 hops) vs a-c-d with c slow.
        routers = {name: Router(sim, name) for name in "abcd"}
        graph = {
            "a": {"b": 1.0, "c": 5.0},
            "b": {"a": 1.0, "d": 1.0},
            "c": {"a": 5.0, "d": 5.0},
            "d": {"b": 1.0, "c": 5.0},
        }
        for s, neighbours in graph.items():
            for t in neighbours:
                link = SimplexLink(sim, routers[s], routers[t])
                routers[s].attach_link(link)
        subnet = Subnet(0x0A000000, 24)
        build_static_routes(graph, routers, [("d", subnet)])
        assert routers["a"].routing_table.next_hop(subnet.base) == "b"
