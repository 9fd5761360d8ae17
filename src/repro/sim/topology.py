"""Topology generators: the simulated domain under protection.

The paper's Figure 1 shows a protected domain: several *ingress routers*
at the edge (some of which become ATRs), a routed core, and a *last-hop
router* fronting the victim.  We provide three generators over that
pattern plus a dumbbell for transport unit tests:

* :func:`build_star_domain` — ingresses connect directly to the last hop.
* :func:`build_tree_domain` — a balanced routing tree, victim at the root.
* :func:`build_transit_stub_domain` — a small transit core ring with stub
  ingress routers, the shape used for the domain-size sweeps (Figs 5c/6c).
* :func:`build_multi_tier_domain` — ingresses at two depths behind
  aggregation routers (ATRs near and far from the victim).
* :func:`build_dumbbell` — 2 hosts, 2 routers, 1 bottleneck.

Every generator returns a :class:`Topology` carrying the simulator, the
router adjacency, routers/hosts, the address plan, and the victim designation.

Experiment-facing topologies live in the :data:`TOPOLOGIES` registry:
each entry adapts an :class:`~repro.experiments.config.ExperimentConfig`
to one generator.  New domain shapes register here and become reachable
by name (``ExperimentConfig(topology="my_shape")``) with no edits to the
scenario composer, the config, or the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.sim.address import AddressSpace, Subnet
from repro.sim.engine import Simulator
from repro.sim.link import SimplexLink
from repro.sim.node import Host, Router
from repro.sim.queues import DropTailQueue
from repro.sim.routing import build_static_routes
from repro.util.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

    from repro.experiments.config import ExperimentConfig

#: Experiment topologies: builders of type ``(ExperimentConfig,
#: **topology_args) -> Topology`` — the config's ``topology_args`` dict
#: arrives as keyword arguments (the built-ins forward them as generator
#: overrides, e.g. ``n_agg`` for ``multi_tier``).  ``meta`` keys in use:
#: ``hops_one_way`` (router hops from a source host to the victim, read
#: by the feasibility validator's RTT estimate).
TOPOLOGIES: "Registry[Callable[[ExperimentConfig], Topology]]" = Registry(
    "topology"
)


@dataclass
class Topology:
    """A built domain: everything an experiment needs to wire flows."""

    sim: Simulator
    #: The router graph, ``{name: {neighbour: link delay}}`` (see
    #: :data:`repro.sim.routing.Adjacency`): what routes are built from.
    adjacency: dict[str, dict[str, float]]
    routers: dict[str, Router]
    hosts: dict[str, Host]
    address_space: AddressSpace
    subnet_of_router: dict[str, Subnet]
    ingress_names: list[str]
    victim_router_name: str
    victim_host_name: str
    links: list[SimplexLink] = field(default_factory=list)

    @property
    def graph(self) -> "nx.Graph":
        """The router graph as a ``networkx.Graph`` with ``delay`` edge
        weights, built on request (analysis and tests; nothing on the
        run path imports networkx).

        Edges are added in an order that gives every node the neighbour
        order ``adjacency`` has, which is the order networkx breaks
        equal-delay ties in: an edge is placed once it heads the
        unplaced neighbours of both its ends.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.adjacency)
        unplaced = {
            name: list(reversed(neighbours))
            for name, neighbours in self.adjacency.items()
        }
        placed = True
        while placed:
            placed = False
            for a, rest in unplaced.items():
                while rest and unplaced[rest[-1]][-1:] == [a]:
                    b = rest.pop()
                    unplaced[b].pop()
                    graph.add_edge(a, b, delay=self.adjacency[a][b])
                    placed = True
        return graph

    @property
    def victim_router(self) -> Router:
        """The last-hop router in front of the victim."""
        return self.routers[self.victim_router_name]

    @property
    def victim_host(self) -> Host:
        """The victim end host."""
        return self.hosts[self.victim_host_name]

    def victim_access_link(self) -> SimplexLink:
        """The link from the last-hop router down to the victim host."""
        link = self.victim_router.link_to(self.victim_host_name)
        if link is None:
            raise RuntimeError("victim access link missing")
        return link

    def ingress_uplink(self, ingress_name: str) -> SimplexLink:
        """The ingress router's link toward the core (where hooks attach).

        For a star domain this is the direct link to the last-hop router;
        in general it is the first hop of the ingress's route to the
        victim subnet.
        """
        router = self.routers[ingress_name]
        table = router.routing_table
        if table is None:
            raise RuntimeError(f"{ingress_name} has no routing table")
        victim_subnet = self.subnet_of_router[self.victim_router_name]
        hop = table.next_hop(victim_subnet.base)
        if hop is None:
            raise RuntimeError(f"{ingress_name} has no route to the victim")
        link = router.link_to(hop)
        if link is None:
            raise RuntimeError(f"{ingress_name} missing link to {hop}")
        return link


def _add_edge(
    adjacency: dict[str, dict[str, float]], a: str, b: str, delay: float
) -> None:
    """Record the duplex connection ``a - b`` in the router graph."""
    adjacency[a][b] = delay
    adjacency[b][a] = delay


def _link_pair(
    sim: Simulator,
    a,
    b,
    bandwidth_bps: float,
    delay: float,
    queue_capacity: int,
    links: list[SimplexLink],
) -> None:
    """Create a duplex connection as two simplex links."""
    fwd = SimplexLink(sim, a, b, bandwidth_bps, delay, DropTailQueue(queue_capacity))
    rev = SimplexLink(sim, b, a, bandwidth_bps, delay, DropTailQueue(queue_capacity))
    a.attach_link(fwd)
    b.attach_link(rev)
    links.extend((fwd, rev))


def _attach_edge_host(
    sim: Simulator,
    router: Router,
    space: AddressSpace,
    host_name: str,
    bandwidth_bps: float,
    delay: float,
    queue_capacity: int,
    links: list[SimplexLink],
    subnet: Subnet | None = None,
    host_index: int = 1,
) -> tuple[Host, Subnet]:
    """Allocate a subnet at ``router`` and hang one host off it."""
    if subnet is None:
        subnet = space.allocate_subnet(24)
    host = Host(sim, host_name, subnet.host(host_index).value)
    host.gateway = router
    _link_pair(sim, host, router, bandwidth_bps, delay, queue_capacity, links)
    router.add_local_delivery(subnet, _HostDelivery(host, router))
    return host, subnet


class _HostDelivery:
    """Router-side local delivery: push the packet down the access link."""

    __slots__ = ("_host", "_router", "_send")

    def __init__(self, host: Host, router: Router) -> None:
        self._host = host
        self._router = router
        # Bound ``send`` of the access link, from the first packet on.
        self._send = None

    def handle_packet(self, packet, now) -> None:
        send = self._send
        if send is None:
            link = self._router.link_to(self._host.name)
            if link is None:
                # No access link: the packet dies here, released and
                # counted like any other the router cannot place.
                self._router.packets_dropped_no_route += 1
                packet.release()
                return
            send = self._send = link.send
        send(packet)


def build_star_domain(
    n_ingress: int = 8,
    core_bandwidth_bps: float = 100e6,
    access_bandwidth_bps: float = 100e6,
    victim_bandwidth_bps: float = 10e6,
    link_delay: float = 0.005,
    queue_capacity: int = 256,
    sim: Simulator | None = None,
) -> Topology:
    """Ingress routers star-connected to the victim's last-hop router.

    Each ingress router fronts one /24 of source hosts; the victim router
    fronts the victim's /24.  The victim access link is the bottleneck.
    """
    if n_ingress < 1:
        raise ValueError("need at least one ingress router")
    sim = sim if sim is not None else Simulator()
    space = AddressSpace()
    adjacency: dict[str, dict[str, float]] = {}
    links: list[SimplexLink] = []
    routers: dict[str, Router] = {}
    hosts: dict[str, Host] = {}
    subnet_of_router: dict[str, Subnet] = {}

    victim_router = Router(sim, "lasthop")
    routers["lasthop"] = victim_router
    adjacency["lasthop"] = {}

    ingress_names: list[str] = []
    for i in range(n_ingress):
        name = f"ingress{i}"
        router = Router(sim, name)
        routers[name] = router
        adjacency[name] = {}
        _add_edge(adjacency, name, "lasthop", link_delay)
        _link_pair(sim, router, victim_router, core_bandwidth_bps, link_delay,
                   queue_capacity, links)
        ingress_names.append(name)
        subnet = space.allocate_subnet(24)
        subnet_of_router[name] = subnet

    victim_subnet = space.allocate_subnet(24)
    subnet_of_router["lasthop"] = victim_subnet
    victim_host, _ = _attach_edge_host(
        sim, victim_router, space, "victim", victim_bandwidth_bps, 0.001,
        queue_capacity, links, subnet=victim_subnet,
    )
    hosts["victim"] = victim_host

    # One source host per ingress subnet; traffic generators send from it
    # (with spoofed source IPs drawn from the whole subnet when attacking).
    for i, name in enumerate(ingress_names):
        host, _ = _attach_edge_host(
            sim, routers[name], space, f"src{i}", access_bandwidth_bps, 0.001,
            queue_capacity, links, subnet=subnet_of_router[name],
        )
        hosts[f"src{i}"] = host

    build_static_routes(adjacency, routers, subnet_of_router.items())
    return Topology(
        sim=sim, adjacency=adjacency, routers=routers, hosts=hosts, address_space=space,
        subnet_of_router=subnet_of_router, ingress_names=ingress_names,
        victim_router_name="lasthop", victim_host_name="victim", links=links,
    )


def build_tree_domain(
    depth: int = 2,
    fanout: int = 3,
    core_bandwidth_bps: float = 100e6,
    access_bandwidth_bps: float = 100e6,
    victim_bandwidth_bps: float = 10e6,
    link_delay: float = 0.005,
    queue_capacity: int = 256,
    sim: Simulator | None = None,
) -> Topology:
    """A balanced router tree; leaves are ingresses, the root is last-hop."""
    if depth < 1 or fanout < 1:
        raise ValueError("depth and fanout must be >= 1")
    sim = sim if sim is not None else Simulator()
    space = AddressSpace()
    adjacency: dict[str, dict[str, float]] = {}
    links: list[SimplexLink] = []
    routers: dict[str, Router] = {}
    hosts: dict[str, Host] = {}
    subnet_of_router: dict[str, Subnet] = {}

    root = Router(sim, "lasthop")
    routers["lasthop"] = root
    adjacency["lasthop"] = {}

    level = ["lasthop"]
    counter = 0
    leaves: list[str] = []
    for d in range(depth):
        next_level: list[str] = []
        for parent in level:
            for _ in range(fanout):
                name = f"r{counter}"
                counter += 1
                router = Router(sim, name)
                routers[name] = router
                adjacency[name] = {}
                _add_edge(adjacency, parent, name, link_delay)
                _link_pair(sim, routers[parent], router, core_bandwidth_bps,
                           link_delay, queue_capacity, links)
                next_level.append(name)
        level = next_level
    leaves = level

    victim_subnet = space.allocate_subnet(24)
    subnet_of_router["lasthop"] = victim_subnet
    victim_host, _ = _attach_edge_host(
        sim, root, space, "victim", victim_bandwidth_bps, 0.001,
        queue_capacity, links, subnet=victim_subnet,
    )
    hosts["victim"] = victim_host

    for i, name in enumerate(leaves):
        subnet = space.allocate_subnet(24)
        subnet_of_router[name] = subnet
        host, _ = _attach_edge_host(
            sim, routers[name], space, f"src{i}", access_bandwidth_bps, 0.001,
            queue_capacity, links, subnet=subnet,
        )
        hosts[f"src{i}"] = host

    build_static_routes(adjacency, routers, subnet_of_router.items())
    return Topology(
        sim=sim, adjacency=adjacency, routers=routers, hosts=hosts, address_space=space,
        subnet_of_router=subnet_of_router, ingress_names=list(leaves),
        victim_router_name="lasthop", victim_host_name="victim", links=links,
    )


def build_transit_stub_domain(
    n_routers: int = 40,
    transit_fraction: float = 0.2,
    core_bandwidth_bps: float = 155e6,
    access_bandwidth_bps: float = 100e6,
    victim_bandwidth_bps: float = 10e6,
    link_delay: float = 0.005,
    queue_capacity: int = 256,
    sim: Simulator | None = None,
) -> Topology:
    """Transit-stub domain: a transit ring core, stub ingresses hanging off.

    ``n_routers`` is the paper's domain-size parameter N (Table II default
    40).  Roughly ``transit_fraction`` of routers form the core ring; the
    rest are stub ingress routers round-robined across core routers.  The
    victim's last-hop router is one of the core routers.
    """
    if n_routers < 3:
        raise ValueError("need at least 3 routers")
    if not 0.0 < transit_fraction < 1.0:
        raise ValueError("transit_fraction must be in (0, 1)")
    sim = sim if sim is not None else Simulator()
    space = AddressSpace()
    adjacency: dict[str, dict[str, float]] = {}
    links: list[SimplexLink] = []
    routers: dict[str, Router] = {}
    hosts: dict[str, Host] = {}
    subnet_of_router: dict[str, Subnet] = {}

    n_core = max(2, int(round(n_routers * transit_fraction)))
    n_stub = n_routers - n_core - 1  # one core slot is the last-hop router
    if n_stub < 1:
        n_core = max(2, n_routers - 2)
        n_stub = n_routers - n_core - 1
        if n_stub < 1:
            raise ValueError(f"n_routers={n_routers} too small for transit-stub")

    core_names = [f"core{i}" for i in range(n_core)]
    for name in core_names:
        routers[name] = Router(sim, name)
        adjacency[name] = {}
    # Ring plus a chord for redundancy.
    for i, name in enumerate(core_names):
        nxt = core_names[(i + 1) % n_core]
        if nxt not in adjacency[name]:
            _add_edge(adjacency, name, nxt, link_delay)
            _link_pair(sim, routers[name], routers[nxt], core_bandwidth_bps,
                       link_delay, queue_capacity, links)
    if n_core >= 4:
        a, b = core_names[0], core_names[n_core // 2]
        if b not in adjacency[a]:
            _add_edge(adjacency, a, b, link_delay)
            _link_pair(sim, routers[a], routers[b], core_bandwidth_bps,
                       link_delay, queue_capacity, links)

    # Last-hop router hangs off core0.
    victim_router = Router(sim, "lasthop")
    routers["lasthop"] = victim_router
    adjacency["lasthop"] = {}
    _add_edge(adjacency, "lasthop", core_names[0], link_delay)
    _link_pair(sim, victim_router, routers[core_names[0]], core_bandwidth_bps,
               link_delay, queue_capacity, links)

    victim_subnet = space.allocate_subnet(24)
    subnet_of_router["lasthop"] = victim_subnet
    victim_host, _ = _attach_edge_host(
        sim, victim_router, space, "victim", victim_bandwidth_bps, 0.001,
        queue_capacity, links, subnet=victim_subnet,
    )
    hosts["victim"] = victim_host

    ingress_names: list[str] = []
    for i in range(n_stub):
        name = f"ingress{i}"
        router = Router(sim, name)
        routers[name] = router
        adjacency[name] = {}
        anchor = core_names[i % n_core]
        _add_edge(adjacency, name, anchor, link_delay)
        _link_pair(sim, router, routers[anchor], access_bandwidth_bps,
                   link_delay, queue_capacity, links)
        ingress_names.append(name)
        subnet = space.allocate_subnet(24)
        subnet_of_router[name] = subnet
        host, _ = _attach_edge_host(
            sim, router, space, f"src{i}", access_bandwidth_bps, 0.001,
            queue_capacity, links, subnet=subnet,
        )
        hosts[f"src{i}"] = host

    build_static_routes(adjacency, routers, subnet_of_router.items())
    return Topology(
        sim=sim, adjacency=adjacency, routers=routers, hosts=hosts, address_space=space,
        subnet_of_router=subnet_of_router, ingress_names=ingress_names,
        victim_router_name="lasthop", victim_host_name="victim", links=links,
    )


def build_multi_tier_domain(
    n_agg: int = 2,
    mids_per_agg: int = 2,
    relays_per_agg: int = 1,
    leaves_per_relay: int = 3,
    core_bandwidth_bps: float = 100e6,
    access_bandwidth_bps: float = 100e6,
    victim_bandwidth_bps: float = 10e6,
    link_delay: float = 0.005,
    queue_capacity: int = 256,
    sim: Simulator | None = None,
) -> Topology:
    """A multi-tier domain with ingress routers at two depths.

    Aggregation routers fan in to the victim's last-hop router.  Each
    aggregation router fronts *mid* ingress routers (depth 2, close to
    the victim) and relay routers whose children are *leaf* ingress
    routers (depth 3, far from the victim).  Both ingress tiers carry
    source subnets, so ATRs arise at two distances from the victim and
    pushback requests traverse different control-path lengths — the
    regime the star domain cannot express.  Relays carry no subnet; a
    leaf's traffic is examined only at its own uplink, never twice.
    """
    if min(n_agg, mids_per_agg, relays_per_agg, leaves_per_relay) < 1:
        raise ValueError("all tier sizes must be >= 1")
    sim = sim if sim is not None else Simulator()
    space = AddressSpace()
    adjacency: dict[str, dict[str, float]] = {}
    links: list[SimplexLink] = []
    routers: dict[str, Router] = {}
    hosts: dict[str, Host] = {}
    subnet_of_router: dict[str, Subnet] = {}

    root = Router(sim, "lasthop")
    routers["lasthop"] = root
    adjacency["lasthop"] = {}

    def connect(parent: str, name: str, bandwidth: float) -> Router:
        router = Router(sim, name)
        routers[name] = router
        adjacency[name] = {}
        _add_edge(adjacency, parent, name, link_delay)
        _link_pair(sim, routers[parent], router, bandwidth, link_delay,
                   queue_capacity, links)
        return router

    ingress_names: list[str] = []
    for a in range(n_agg):
        agg_name = f"agg{a}"
        connect("lasthop", agg_name, core_bandwidth_bps)
        for m in range(mids_per_agg):
            ingress_names.append(
                connect(agg_name, f"mid{a}_{m}", access_bandwidth_bps).name
            )
        for r in range(relays_per_agg):
            relay_name = f"relay{a}_{r}"
            connect(agg_name, relay_name, core_bandwidth_bps)
            for leaf in range(leaves_per_relay):
                ingress_names.append(
                    connect(relay_name, f"leaf{a}_{r}_{leaf}",
                            access_bandwidth_bps).name
                )

    victim_subnet = space.allocate_subnet(24)
    subnet_of_router["lasthop"] = victim_subnet
    victim_host, _ = _attach_edge_host(
        sim, root, space, "victim", victim_bandwidth_bps, 0.001,
        queue_capacity, links, subnet=victim_subnet,
    )
    hosts["victim"] = victim_host

    for i, name in enumerate(ingress_names):
        subnet = space.allocate_subnet(24)
        subnet_of_router[name] = subnet
        host, _ = _attach_edge_host(
            sim, routers[name], space, f"src{i}", access_bandwidth_bps, 0.001,
            queue_capacity, links, subnet=subnet,
        )
        hosts[f"src{i}"] = host

    build_static_routes(adjacency, routers, subnet_of_router.items())
    return Topology(
        sim=sim, adjacency=adjacency, routers=routers, hosts=hosts, address_space=space,
        subnet_of_router=subnet_of_router, ingress_names=ingress_names,
        victim_router_name="lasthop", victim_host_name="victim", links=links,
    )


def build_dumbbell(
    bottleneck_bps: float = 1.5e6,
    access_bps: float = 10e6,
    delay: float = 0.010,
    queue_capacity: int = 32,
    sim: Simulator | None = None,
) -> Topology:
    """Two hosts, two routers, one bottleneck — the transport test rig."""
    sim = sim if sim is not None else Simulator()
    space = AddressSpace()
    adjacency: dict[str, dict[str, float]] = {}
    links: list[SimplexLink] = []
    routers: dict[str, Router] = {}
    hosts: dict[str, Host] = {}
    subnet_of_router: dict[str, Subnet] = {}

    left = Router(sim, "left")
    right = Router(sim, "lasthop")
    routers["left"], routers["lasthop"] = left, right
    adjacency["left"] = {}
    adjacency["lasthop"] = {}
    _add_edge(adjacency, "left", "lasthop", delay)
    _link_pair(sim, left, right, bottleneck_bps, delay, queue_capacity, links)

    left_subnet = space.allocate_subnet(24)
    subnet_of_router["left"] = left_subnet
    src, _ = _attach_edge_host(sim, left, space, "src0", access_bps, 0.001,
                               queue_capacity, links, subnet=left_subnet)
    hosts["src0"] = src

    right_subnet = space.allocate_subnet(24)
    subnet_of_router["lasthop"] = right_subnet
    dst, _ = _attach_edge_host(sim, right, space, "victim", access_bps, 0.001,
                               queue_capacity, links, subnet=right_subnet)
    hosts["victim"] = dst

    build_static_routes(adjacency, routers, subnet_of_router.items())
    return Topology(
        sim=sim, adjacency=adjacency, routers=routers, hosts=hosts, address_space=space,
        subnet_of_router=subnet_of_router, ingress_names=["left"],
        victim_router_name="lasthop", victim_host_name="victim", links=links,
    )


# --------------------------------------------------------------------------
# Registry adapters: ExperimentConfig -> generator arguments.  The paper's
# knobs (bandwidths, delay, queue size, N) map onto each generator here;
# everything else about a shape stays local to its builder.


def _common_link_kwargs(config: "ExperimentConfig") -> dict:
    return dict(
        core_bandwidth_bps=config.core_bandwidth_bps,
        access_bandwidth_bps=config.access_bandwidth_bps,
        victim_bandwidth_bps=config.victim_bandwidth_bps,
        link_delay=config.link_delay,
        queue_capacity=config.queue_capacity,
    )


@TOPOLOGIES.register("star", hops_one_way=2)
def _star_from_config(config: "ExperimentConfig", **overrides) -> Topology:
    """Ingresses star-connected straight to the victim's last-hop router."""
    params = dict(
        n_ingress=max(1, config.n_routers - 1), **_common_link_kwargs(config)
    )
    params.update(overrides)
    return build_star_domain(**params)


@TOPOLOGIES.register("tree", hops_one_way=3)
def _tree_from_config(config: "ExperimentConfig", **overrides) -> Topology:
    """Balanced router tree; leaves are ingresses, the victim at the root."""
    # Pick fanout 3 and the depth that reaches roughly n_routers.
    fanout = 3
    depth = max(1, round(math.log(max(3, config.n_routers), fanout)) - 0)
    params = dict(
        depth=min(3, depth), fanout=fanout, **_common_link_kwargs(config)
    )
    params.update(overrides)
    return build_tree_domain(**params)


@TOPOLOGIES.register("transit_stub", aliases=("transit-stub",), hops_one_way=4)
def _transit_stub_from_config(config: "ExperimentConfig", **overrides) -> Topology:
    """Transit ring core with stub ingresses; honours n_routers exactly."""
    params = dict(n_routers=config.n_routers, **_common_link_kwargs(config))
    params.update(overrides)
    return build_transit_stub_domain(**params)


@TOPOLOGIES.register("multi_tier", aliases=("multi-tier",), hops_one_way=4)
def _multi_tier_from_config(config: "ExperimentConfig", **overrides) -> Topology:
    """Two ingress tiers behind aggregation routers (ATRs at two depths)."""
    # Split n_routers across aggregation subtrees, each one relay plus
    # mid/leaf ingresses in a ~1:2 ratio.  Router count comes out at
    # n_routers up to integer-division remainders; the smallest
    # expressible two-tier domain (agg + relay + one ingress per tier)
    # has 5 routers, the floor for n_routers <= 5.
    n_agg = 1 if config.n_routers < 12 else 2 if config.n_routers < 24 else 3
    per_agg = max(3, (config.n_routers - 1 - n_agg) // n_agg)
    budget = per_agg - 1  # one relay per subtree
    mids = max(1, budget // 3)
    leaves = max(1, budget - mids)
    params = dict(
        n_agg=n_agg,
        mids_per_agg=mids,
        relays_per_agg=1,
        leaves_per_relay=leaves,
        **_common_link_kwargs(config),
    )
    params.update(overrides)
    return build_multi_tier_domain(**params)
