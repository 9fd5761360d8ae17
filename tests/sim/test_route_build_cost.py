"""What building the routes of a domain costs, in trees and notifications.

On the largest domain the ledger runs (``huge_topology(8)``, 320
routers) 256 routers have one neighbour.  Such a leaf forwards
everything through that neighbour, so ``build_static_routes`` runs no
Dijkstra for it and settles none inside the trees it does run: one tree
per branching router, each over branching routers only.  Each table is
filled by one ``add_routes`` call, so a router watching its table hears
one invalidation per build, not one per route.  The per-router build ran
320 trees over all 320 routers and notified 81,664 times.

What the built tables keep is their per-prefix-length dicts alone
(2.96 MiB on CPython 3.11); a per-table list of every installed
``(subnet, hop)`` route, read only by ``routes()`` and ``len()``, once
took it to 5.36 MiB.
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
    assert held_mib <= 3.25, f"{held_mib:.2f} MiB"
    assert sum(len(router.routing_table) for router in routers.values()) == 81_664
