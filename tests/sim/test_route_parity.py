"""Route parity: the in-tree Dijkstra against networkx, the reference.

``repro.sim.routing.shortest_path_tree`` replaced networkx on the run
path on the promise that every next hop — equal-delay ties included —
is the one ``nx.single_source_dijkstra_path`` picks, which is what keeps
every recorded fingerprint valid.  networkx is a test-only dependency;
without it this module is skipped.
"""

import random

import pytest

from repro.counting.signaling import ControlPlane
from repro.experiments.config import ExperimentConfig
from repro.experiments.presets import huge_topology
from repro.sim.routing import shortest_path_tree
from repro.sim.topology import TOPOLOGIES, Topology

nx = pytest.importorskip("networkx")

#: (seed, domain size): the seed rides along as the issue asks, but it is
#: the size that changes the routed graph.
CASES = [(1, 10), (2, 23), (3, 40)]


def _registered_topologies():
    for name in TOPOLOGIES.names():
        for seed, n_routers in CASES:
            config = ExperimentConfig(topology=name, seed=seed, n_routers=n_routers)
            yield pytest.param(config, id=f"{name}-n{n_routers}-seed{seed}")
    for seed, _ in CASES:
        yield pytest.param(
            huge_topology(2).with_overrides(seed=seed), id=f"huge2-seed{seed}"
        )


def _build(config: ExperimentConfig) -> Topology:
    return TOPOLOGIES.get(config.topology)(config, **config.topology_args)


def _path(pred: dict, source: str, target: str) -> list[str]:
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]])
    return path[::-1]


@pytest.mark.parametrize("config", list(_registered_topologies()))
class TestBuiltDomains:
    def test_every_first_hop_is_networkx_first_hop(self, config):
        topology = _build(config)
        graph = topology.graph
        assert set(graph.nodes) == set(topology.routers)
        for name, router in topology.routers.items():
            paths = nx.single_source_dijkstra_path(graph, name, weight="delay")
            for attach_name, subnet in topology.subnet_of_router.items():
                expected = None if attach_name == name else paths[attach_name][1]
                got = router.routing_table.next_hop(subnet.host(1).value)
                assert got == expected, (name, attach_name)

    def test_control_plane_delay_and_path_are_networkx(self, config):
        topology = _build(config)
        graph = topology.graph
        victim = topology.victim_router_name
        plane = ControlPlane(
            topology.sim, topology.adjacency, victim, lambda request: None
        )
        _, pred = shortest_path_tree(topology.adjacency, victim)
        for name in topology.ingress_names:
            delay, path = nx.single_source_dijkstra(
                graph, victim, name, weight="delay"
            )
            assert plane.latency_to(name) == (delay, len(path) - 1)
            assert _path(pred, victim, name) == path


def _random_tied_graph(rng: random.Random):
    """An edge sequence with few distinct delays (ties everywhere), as
    both an adjacency and the nx.Graph the same add_edge calls make."""
    names = [f"r{i}" for i in range(rng.randint(4, 14))]
    adjacency = {name: {} for name in names}
    graph = nx.Graph()
    graph.add_nodes_from(names)
    for _ in range(rng.randint(len(names), 3 * len(names))):
        a, b = rng.sample(names, 2)
        delay = rng.choice((0.005, 0.005, 0.01, 0.015))
        adjacency[a][b] = delay
        adjacency[b][a] = delay
        graph.add_edge(a, b, delay=delay)
    return adjacency, graph


class TestEqualDelayTies:
    @pytest.mark.parametrize("seed", range(25))
    def test_tree_matches_networkx_on_tied_random_graphs(self, seed):
        adjacency, graph = _random_tied_graph(random.Random(seed))
        for source in adjacency:
            dist, pred = shortest_path_tree(adjacency, source)
            expected_dist, expected_paths = nx.single_source_dijkstra(
                graph, source, weight="delay"
            )
            assert dist == expected_dist
            assert list(dist) == list(expected_dist)  # settling order too
            for target, expected in expected_paths.items():
                assert _path(pred, source, target) == expected

    def test_unreachable_and_unknown_nodes_are_absent(self):
        adjacency = {"a": {"b": 1.0}, "b": {"a": 1.0}, "island": {}}
        dist, pred = shortest_path_tree(adjacency, "a")
        assert set(dist) == {"a", "b"} and pred == {"b": "a"}
        assert shortest_path_tree(adjacency, "ghost") == ({"ghost": 0}, {})


class TestGraphProperty:
    @pytest.mark.parametrize("seed", range(10))
    def test_graph_keeps_every_neighbour_order(self, seed):
        """Topology.graph must rebuild the nx.Graph the add_edge sequence
        made — neighbour order is what networkx breaks ties by."""
        adjacency, graph = _random_tied_graph(random.Random(100 + seed))
        topology = Topology(
            sim=None, adjacency=adjacency, routers={}, hosts={},
            address_space=None, subnet_of_router={}, ingress_names=[],
            victim_router_name="", victim_host_name="",
        )
        rebuilt = topology.graph
        assert list(rebuilt.nodes) == list(graph.nodes)
        for name in graph.nodes:
            assert list(rebuilt.adj[name].items()) == list(graph.adj[name].items())
