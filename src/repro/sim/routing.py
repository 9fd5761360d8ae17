"""Static shortest-path routing.

Routes are computed once from the topology's adjacency (Dijkstra over
link delays) and installed as longest-prefix-match tables keyed by
subnet.  The core network of the paper is a fixed intra-AS domain, so
static routing is faithful: there is no route churn during an experiment.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from itertools import islice
from typing import TYPE_CHECKING, Callable, Container, Iterable, Mapping

from repro.sim.address import Subnet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.node import Router

#: The routed graph: ``{router: {neighbour: link delay}}``, symmetric,
#: each inner dict in edge-insertion order (the order ties break in).
Adjacency = Mapping[str, Mapping[str, float]]


def _codes(values: Iterable[int], wide: bool) -> array:
    """Hop codes packed one byte each, or four once a table has more than
    256 hop names."""
    return array("I", values) if wide else array("B", bytes(values))


class RoutingTable:
    """Longest-prefix-match next-hop table for one router.

    Routes live packed, per netmask: a sorted ``array`` of masked bases
    and a parallel array of hop codes, one-byte indexes into the table's
    hop names (four bytes once a table names more than 256 hops), about
    five bytes a route.  A lookup is one ``bisect`` per *distinct*
    prefix length, longest first.  Lookups are not memoized here: the
    per-destination memo is the router's (:class:`~repro.sim.node.Router`
    resolves local delivery, LPM and the outgoing link in one probe, and
    asks the table only on a miss), and :meth:`watch` is how a router
    hears that its memo went stale.
    """

    def __init__(self) -> None:
        # (netmask, sorted masked bases, hop code per base), longest
        # prefix first.
        self._prefixes: list[tuple[int, array, array]] = []
        self._hop_names: list[str] = []
        self._default: str | None = None
        self._watchers: list[Callable[[], None]] = []

    def add_route(self, subnet: Subnet, next_hop_name: str) -> None:
        """Install a route to ``subnet`` via the named neighbour.

        A subnet installed twice keeps its first next hop.
        """
        self.add_routes(((subnet, next_hop_name),))

    def add_routes(self, routes: Iterable[tuple[Subnet, str]]) -> None:
        """Install every ``(subnet, next hop name)`` of ``routes``, in order.

        A subnet installed twice keeps its first next hop.  The prefix
        lengths are re-sorted at most once per call, and watchers hear
        of a call once (not at all of an empty one).
        """
        codes = dict(zip(self._hop_names, range(len(self._hop_names))))
        # netmask -> {masked base: hop code}, first install wins.
        fresh_by_mask: dict[int, dict[int, int]] = {}
        prefix_len = hop = None
        for subnet, next_hop in routes:
            if subnet.prefix_len != prefix_len:
                prefix_len = subnet.prefix_len
                fresh = fresh_by_mask.setdefault(subnet.netmask, {})
            if next_hop is not hop:  # runs of routes share a hop
                hop = next_hop
                code = codes.setdefault(hop, len(codes))
            fresh.setdefault(subnet.base, code)
        if not fresh_by_mask:
            return
        self._hop_names = list(codes)
        wide = len(codes) > 256
        packed = {mask: (bases, hops) for mask, bases, hops in self._prefixes}
        for mask, fresh in fresh_by_mask.items():
            held = packed.get(mask)
            if held is None:
                bases = sorted(fresh)
                if bases != list(fresh):
                    fresh = {base: fresh[base] for base in bases}
                packed[mask] = (array("I", bases), _codes(fresh.values(), wide))
                continue
            bases, hops = held
            if wide and hops.typecode == "B":
                hops = array("I", hops)
                packed[mask] = (bases, hops)
            for base, code in fresh.items():
                at = bisect_left(bases, base)
                if at == len(bases) or bases[at] != base:  # else the first hop stays
                    bases.insert(at, base)
                    hops.insert(at, code)
        # A longer prefix is a numerically larger mask.
        self._prefixes = [
            (mask, bases, hops)
            for mask, (bases, hops) in sorted(packed.items(), reverse=True)
        ]
        self._changed()

    def set_default(self, next_hop_name: str) -> None:
        """Install a default route."""
        self._default = next_hop_name
        self._changed()

    def longest_netmask(self) -> int:
        """The mask of the longest installed prefix (0 with no routes).

        Two addresses equal under it match the same routes.
        """
        return self._prefixes[0][0] if self._prefixes else 0

    def next_hop(self, dst_ip: int) -> str | None:
        """Longest-prefix-match lookup; falls back to the default route."""
        for mask, bases, hops in self._prefixes:
            key = dst_ip & mask
            at = bisect_right(bases, key)
            if at and bases[at - 1] == key:
                return self._hop_names[hops[at - 1]]
        return self._default

    def routes(self) -> tuple[tuple[Subnet, str], ...]:
        """Each subnet once, with its hop: longest prefix first, then ascending base."""
        names = self._hop_names
        return tuple(
            (Subnet(base, mask.bit_count()), names[hop])
            for mask, bases, hops in self._prefixes for base, hop in zip(bases, hops)
        )

    def watch(self, on_change: Callable[[], None]) -> None:
        """Call ``on_change()`` after every route or default change."""
        self._watchers.append(on_change)

    def unwatch(self, on_change: Callable[[], None]) -> None:
        """Stop calling ``on_change`` (the inverse of :meth:`watch`)."""
        self._watchers.remove(on_change)

    def _changed(self) -> None:
        for on_change in self._watchers:
            on_change()

    def __len__(self) -> int:
        return sum(len(bases) for _, bases, _ in self._prefixes)


def shortest_path_tree(
    adjacency: Adjacency, source: str, skip: Container[str] = ()
) -> tuple[dict[str, float], dict[str, str]]:
    """Dijkstra from ``source``: ``(distance, predecessor)`` per reachable node.

    ``distance`` is keyed in settling order (``source`` first).  This
    mirrors ``networkx.single_source_dijkstra`` step for step — the
    same ``(distance, push count)`` heap order, neighbours relaxed in
    adjacency order, a predecessor replaced only by a strictly shorter
    path — so equal-delay ties resolve to the path networkx would
    return (``tests/sim/test_route_parity.py`` holds the two together).

    Nodes in ``skip`` are never relaxed into, so they and everything
    reachable only through them are absent.  In a symmetric adjacency,
    skipping a node with one neighbour leaves every other node's
    distance, predecessor and settling order as they were: it is pushed
    from that neighbour alone and relaxes nothing once settled.
    """
    dist: dict[str, float] = {}
    pred: dict[str, str] = {}
    seen: dict[str, float] = {source: 0}
    pushes = 1
    fringe: list[tuple[float, int, str]] = [(0, 0, source)]
    while fringe:
        dist_v, _, v = heappop(fringe)
        if v in dist:
            continue
        dist[v] = dist_v
        for u, delay in adjacency.get(v, {}).items():
            if u in dist or u in skip:
                continue
            vu_dist = dist_v + delay
            if u not in seen or vu_dist < seen[u]:
                seen[u] = vu_dist
                heappush(fringe, (vu_dist, pushes, u))
                pushes += 1
                pred[u] = v
    return dist, pred


def build_static_routes(
    adjacency: Adjacency,
    routers: dict[str, "Router"],
    subnet_attachments: Iterable[tuple[str, Subnet]],
) -> None:
    """Compute and install shortest-path routes on every router.

    ``adjacency`` holds the link delay between neighbouring routers;
    ``subnet_attachments`` yields ``(router_name, subnet)`` pairs naming
    the router each allocated subnet hangs off (a ``dict.items()`` view
    of a router-name -> subnet map works directly).  Every router gets
    a route to every subnet attached elsewhere, via the first hop of
    its shortest path there, in ``subnet_attachments`` order.

    Only *branching* routers run a Dijkstra.  A *leaf* — a router with
    one neighbour, its anchor — forwards everything it reaches through
    the anchor, so it reads that reach off the anchor's tree; when the
    anchor is a leaf too (a two-router island, or a lone self-loop), the
    anchor is the whole reach.  Leaves are skipped inside the trees and
    get their first hop from their anchor's.  This relies on the
    adjacency being symmetric, as :data:`Adjacency` says it is.
    """
    attachments = list(subnet_attachments)
    for attach_name, subnet in attachments:
        if attach_name not in routers:
            raise ValueError(f"subnet {subnet} attached to unknown router {attach_name}")
    anchor_of = {
        name: next(iter(neighbours))
        for name, neighbours in adjacency.items()
        if len(neighbours) == 1
    }
    leaves_of: dict[str, list[str]] = {}
    for leaf, anchor in anchor_of.items():
        leaves_of.setdefault(anchor, []).append(leaf)
    first_hops: dict[str, dict[str, str]] = {}  # source -> {node: first hop}
    # anchor -> [(attach name, route)]: built once per anchor, not once
    # per leaf, since every leaf of an anchor routes the same way.
    via_anchor: dict[str, list[tuple[str, tuple[Subnet, str]]]] = {}

    def first_hops_from(source: str) -> dict[str, str]:
        hops = first_hops.get(source)
        if hops is None:
            dist, pred = shortest_path_tree(adjacency, source, anchor_of)
            hops = first_hops[source] = {
                leaf: leaf for leaf in leaves_of.get(source, ())
            }
            # Settling order puts every predecessor before its successors,
            # so one pass carries each node's first hop down the tree.
            for node in islice(dist, 1, None):
                via = pred[node]
                hop = hops[node] = node if via == source else hops[via]
                for leaf in leaves_of.get(node, ()):
                    hops[leaf] = hop
        return hops

    for name, router in routers.items():
        anchor = anchor_of.get(name)
        if anchor is None:
            hops = first_hops_from(name)
            # Absent from hops: local (no hop) or unreachable.
            routes = [(subnet, hops[at]) for at, subnet in attachments if at in hops]
        else:
            via = via_anchor.get(anchor)
            if via is None:
                hops = {} if anchor in anchor_of else first_hops_from(anchor)
                via = via_anchor[anchor] = [
                    (at, (subnet, anchor)) for at, subnet in attachments
                    if at == anchor or at in hops
                ]
            routes = [route for at, route in via if at != name]
        table = router.routing_table
        if table is None:
            table = RoutingTable()
        table.add_routes(routes)
        # Assigned last: a fresh table fills before any router watches it.
        router.routing_table = table
