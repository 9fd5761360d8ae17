"""What building the routes of a domain costs, in trees and notifications.

On the largest domain the ledger runs (``huge_topology(8)``, 320
routers) 256 routers have one neighbour.  Such a leaf forwards
everything through that neighbour, so ``build_static_routes`` runs no
Dijkstra for it and settles none inside the trees it does run: one tree
per branching router, each over branching routers only.  Each table is
filled by one ``add_routes`` call, so a router watching its table hears
one invalidation per build, not one per route.  The per-router build ran
320 trees over all 320 routers and notified 81,664 times.

What the built tables keep is, per prefix length, a sorted array of
masked bases and a parallel array of one-byte hop codes: 0.57 MiB for
the 81,664 routes on CPython 3.11, about five bytes a route.  One
``{base: hop}`` dict per prefix length held 2.96 MiB, and a per-table
list of every installed ``(subnet, hop)`` route beside those dicts, read
only by ``routes()`` and ``len()``, once took it to 5.36 MiB.  The 256
leaves route alike per anchor, so they share their anchor's packed
reach, each leaving out its own subnet, where each packed its own 255
routes: the 640 arrays became 256.
"""

import gc
import tracemalloc

import pytest

from repro.experiments.presets import huge_topology
from repro.sim import routing
from repro.sim.engine import PySimulator
from repro.sim.node import Router
from repro.sim.routing import RoutingTable, build_static_routes
from repro.sim.topology import TOPOLOGIES


@pytest.fixture(scope="module")
def domain():
    config = huge_topology(8)
    topology = TOPOLOGIES.get(config.topology)(config, **config.topology_args)
    leaves = {name for name, neighbours in topology.adjacency.items()
              if len(neighbours) == 1}
    assert len(topology.routers) == 320 and len(leaves) == 256
    return topology, leaves


def _fresh_routers(topology):
    sim = PySimulator()
    return {name: Router(sim, name) for name in topology.routers}


def test_only_branching_routers_run_a_tree_and_no_tree_settles_a_leaf(
    domain, monkeypatch
):
    topology, leaves = domain
    trees = []
    real_tree = routing.shortest_path_tree

    def counted_tree(adjacency, source, *args):
        dist, pred = real_tree(adjacency, source, *args)
        trees.append((source, dist))
        return dist, pred

    monkeypatch.setattr(routing, "shortest_path_tree", counted_tree)
    build_static_routes(
        topology.adjacency, _fresh_routers(topology), topology.subnet_of_router.items()
    )
    sources = [source for source, _ in trees]
    assert not leaves & set(sources)
    assert sorted(sources) == sorted(set(topology.routers) - leaves)  # once each
    assert not any(leaves & set(dist) for _, dist in trees)


def test_a_watched_table_hears_one_invalidation_per_build(domain):
    topology, _ = domain
    routers = _fresh_routers(topology)
    heard = dict.fromkeys(routers, 0)
    for name, router in routers.items():
        router.routing_table = RoutingTable()

        def count(name=name):
            heard[name] += 1

        router.routing_table.watch(count)
    build_static_routes(topology.adjacency, routers, topology.subnet_of_router.items())
    assert sum(len(router.routing_table) for router in routers.values()) == 81_664
    assert set(heard.values()) == {1}


def test_the_built_tables_hold_no_more_than_their_dicts(domain):
    topology, _ = domain
    routers = _fresh_routers(topology)
    gc.collect()
    tracemalloc.start()
    try:
        build_static_routes(
            topology.adjacency, routers, topology.subnet_of_router.items()
        )
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.Filter(True, routing.__file__)])
    held_mib = sum(stat.size for stat in held.statistics("filename")) / 2**20
    assert held_mib <= 1.0, f"{held_mib:.2f} MiB"
    assert sum(len(router.routing_table) for router in routers.values()) == 81_664


def test_leaves_of_one_anchor_share_its_arrays_and_keep_their_routes(domain):
    topology, leaves = domain
    routers = _fresh_routers(topology)
    attachments = list(topology.subnet_of_router.items())
    build_static_routes(topology.adjacency, routers, attachments)
    leaves_of: dict[str, list[str]] = {}
    for leaf in sorted(leaves):
        (anchor,) = topology.adjacency[leaf]
        leaves_of.setdefault(anchor, []).append(leaf)
    assert any(len(group) > 1 for group in leaves_of.values())
    for anchor, group in leaves_of.items():
        held = {
            id(array)
            for leaf in group
            for _, bases, hops in routers[leaf].routing_table._prefixes
            for array in (bases, hops)
        }
        assert len(held) == 2, anchor  # one packed reach: bases and hops
        for leaf in group:
            table = routers[leaf].routing_table
            # The routes an unshared build fills the leaf with.
            alone = RoutingTable()
            alone.add_routes((subnet, anchor) for at, subnet in attachments if at != leaf)
            assert table.routes() == alone.routes(), leaf
            assert len(table) == len(alone)
            assert table.longest_netmask() == alone.longest_netmask()
            own = topology.subnet_of_router.get(leaf)
            if own is not None:
                assert table.next_hop(own.base) is None
            for _, subnet in attachments:
                assert table.next_hop(subnet.base) == alone.next_hop(subnet.base)
