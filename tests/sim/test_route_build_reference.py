"""Route build against the per-router build it replaced.

``build_static_routes`` runs a Dijkstra only from branching routers:
a leaf (one neighbour, not itself) reads its reach off its anchor's
tree, leaves are skipped inside the trees, and each table is filled by
one ``add_routes`` call.  The per-router build below — one
``shortest_path_tree`` per router, then every route it yields in
attachment order — is what it replaced, kept here as the reference:
every router's ``routes()``, ``len()`` and ``next_hop`` must come out
identical on the registered topologies, the scaled-up domains, and
random tied graphs with leaves, leaf chains, two-router islands,
isolated routers, routers missing from the adjacency, duplicate
subnets and already-filled tables.
"""

import random
from itertools import islice

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.presets import huge_topology
from repro.sim.address import Subnet
from repro.sim.engine import PySimulator
from repro.sim.node import Router
from repro.sim.routing import RoutingTable, build_static_routes, shortest_path_tree
from repro.sim.topology import TOPOLOGIES

SIZES = (10, 23, 40, 160)


def reference_build(adjacency, routers, subnet_attachments):
    """The per-router build: a tree per router, its routes in one call
    (a subnet installed twice keeps its first hop, as route by route)."""
    attachments = list(subnet_attachments)
    for name, router in routers.items():
        dist, pred = shortest_path_tree(adjacency, name)
        first_hop = {}
        for node in islice(dist, 1, None):
            via = pred[node]
            first_hop[node] = node if via == name else first_hop[via]
        table = router.routing_table
        if table is None:
            table = RoutingTable()
        table.add_routes(
            (subnet, first_hop[attach_name])
            for attach_name, subnet in attachments if attach_name in first_hop
        )
        router.routing_table = table


def _fresh_routers(names, prefilled=()):
    sim = PySimulator()
    routers = {name: Router(sim, name) for name in names}
    for name, subnet, hop in prefilled:
        if routers[name].routing_table is None:
            routers[name].routing_table = RoutingTable()
        routers[name].routing_table.add_route(subnet, hop)
    return routers


def _probes(attachments, rng):
    """Addresses to look up: every subnet's base, first and last host,
    plus a few random addresses (mostly unrouted)."""
    addresses = []
    for _, subnet in attachments:
        addresses += [subnet.base, subnet.host(1).value, subnet.base + subnet.size - 1]
    addresses += [rng.getrandbits(32) for _ in range(8)]
    return addresses


def assert_same_build(adjacency, names, attachments, prefilled=(), seed=0):
    expected = _fresh_routers(names, prefilled)
    got = _fresh_routers(names, prefilled)
    reference_build(adjacency, expected, attachments)
    build_static_routes(adjacency, got, attachments)
    probes = _probes(attachments, random.Random(seed))
    for name in names:
        want, have = expected[name].routing_table, got[name].routing_table
        assert have.routes() == want.routes(), name
        assert len(have) == len(want), name
        for address in probes:
            assert have.next_hop(address) == want.next_hop(address), (name, address)


def _topology_cases():
    for name in TOPOLOGIES.names():
        for n_routers in SIZES:
            config = ExperimentConfig(topology=name, n_routers=n_routers)
            yield pytest.param(config, id=f"{name}-n{n_routers}")
    for scale in (1, 2, 8):
        yield pytest.param(huge_topology(scale), id=f"huge{scale}")


@pytest.mark.parametrize("config", list(_topology_cases()))
def test_built_domains_match_the_per_router_build(config):
    topology = TOPOLOGIES.get(config.topology)(config, **config.topology_args)
    attachments = list(topology.subnet_of_router.items())
    assert_same_build(topology.adjacency, list(topology.routers), attachments)


def _random_domain(rng: random.Random):
    """A ``_random_tied_graph``-shaped core (few distinct delays, ties
    everywhere) plus every shape the leaf rule has to get right."""
    delays = (0.005, 0.005, 0.01, 0.015)
    core = [f"r{i}" for i in range(rng.randint(2, 12))]
    adjacency = {name: {} for name in core}

    def edge(a, b):
        delay = rng.choice(delays)
        adjacency.setdefault(a, {})[b] = delay
        adjacency.setdefault(b, {})[a] = delay

    for _ in range(rng.randint(len(core), 3 * len(core))):
        edge(*rng.sample(core, 2))
    extra = 0

    def fresh():
        nonlocal extra
        extra += 1
        return f"x{extra}"

    for _ in range(rng.randint(0, 10)):  # leaves, some at the end of a chain
        tail = rng.choice(core + [n for n in adjacency if n.startswith("x")])
        for _ in range(rng.choice((1, 1, 2, 3))):
            name = fresh()
            edge(tail, name)
            tail = name
    for _ in range(rng.randint(0, 2)):  # two-router islands
        edge(fresh(), fresh())
    for _ in range(rng.randint(0, 2)):  # isolated, with an empty adjacency
        adjacency[fresh()] = {}
    for name in rng.sample(core, 1) + [fresh()]:  # self-loops
        if rng.random() < 0.3:
            edge(name, name)
    missing = [fresh() for _ in range(rng.randint(0, 2))]  # not in adjacency

    names = list(adjacency) + missing
    rng.shuffle(names)
    # Several subnets on some routers, one attached twice, one at two
    # routers; nested prefixes so the LPM order and the masks matter.
    attachments = []
    base = 0x0A000000
    for name in names:
        for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
            prefix = rng.choice((16, 24, 24, 24, 28))
            subnet = Subnet(base & ~((1 << (32 - prefix)) - 1), prefix)
            base += 1 << 12
            attachments.append((name, subnet))
    if attachments:
        attachments.append(rng.choice(attachments))
        attachments.append((rng.choice(names), rng.choice(attachments)[1]))
    rng.shuffle(attachments)
    return adjacency, names, attachments


@pytest.mark.parametrize("seed", range(40))
def test_random_tied_domains_match_the_per_router_build(seed):
    rng = random.Random(seed)
    adjacency, names, attachments = _random_domain(rng)
    assert_same_build(adjacency, names, attachments, seed=seed)


@pytest.mark.parametrize("seed", range(10))
def test_an_already_filled_table_keeps_its_routes_first(seed):
    rng = random.Random(1000 + seed)
    adjacency, names, attachments = _random_domain(rng)
    prefilled = [
        (rng.choice(names), subnet, "static")
        for _, subnet in rng.sample(attachments, min(3, len(attachments)))
    ]
    prefilled.append((names[0], Subnet(0x0B000000, 8), "static"))
    assert_same_build(adjacency, names, attachments, prefilled, seed=seed)


def test_leaf_rule_shapes_by_hand():
    """Each shape once, spelled out: a leaf off the core, a leaf chain,
    an island, an isolated router, a lone self-loop and a router missing
    from the adjacency."""
    adjacency = {
        "a": {"b": 1.0, "c": 1.0, "leaf": 1.0},
        "b": {"a": 1.0, "c": 1.0, "chain1": 1.0},
        "c": {"a": 1.0, "b": 1.0},
        "leaf": {"a": 1.0},
        "chain1": {"b": 1.0, "chain2": 1.0},
        "chain2": {"chain1": 1.0},
        "i1": {"i2": 1.0},
        "i2": {"i1": 1.0},
        "alone": {},
        "loop": {"loop": 1.0},
    }
    names = list(adjacency) + ["ghost"]
    attachments = [
        (name, Subnet(0x0A000000 + (i << 8), 24)) for i, name in enumerate(names)
    ]
    assert_same_build(adjacency, names, attachments)
    routers = _fresh_routers(names)
    build_static_routes(adjacency, routers, attachments)
    subnet = dict(attachments)
    table = routers["chain2"].routing_table
    assert table.next_hop(subnet["c"].base) == "chain1"
    assert table.next_hop(subnet["i1"].base) is None
    assert routers["i1"].routing_table.routes() == ((subnet["i2"], "i2"),)
    for name in ("alone", "loop", "ghost"):
        assert len(routers[name].routing_table) == 0
