"""Static shortest-path routing.

Routes are computed once from the topology's adjacency (Dijkstra over
link delays) and installed as longest-prefix-match tables keyed by
subnet.  The core network of the paper is a fixed intra-AS domain, so
static routing is faithful: there is no route churn during an experiment.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.sim.address import Subnet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.node import Router

#: The routed graph: ``{router: {neighbour: link delay}}``, symmetric,
#: each inner dict in edge-insertion order (the order ties break in).
Adjacency = Mapping[str, Mapping[str, float]]


class RoutingTable:
    """Longest-prefix-match next-hop table for one router.

    Routes live in one exact-match dict per prefix length, probed
    longest first, so a lookup costs one dict probe per *distinct*
    prefix length however many routes are installed.  Lookups are not
    memoized here: the per-destination memo is the router's
    (:class:`~repro.sim.node.Router` resolves local delivery, LPM and
    the outgoing link in one probe), and :meth:`watch` is how a router
    hears that its memo went stale.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[Subnet, str]] = []  # insertion order
        # netmask -> {masked base: hop}, kept longest prefix first.
        self._hops_by_mask: dict[int, dict[int, str]] = {}
        self._default: str | None = None
        self._watchers: list[Callable[[], None]] = []

    def add_route(self, subnet: Subnet, next_hop_name: str) -> None:
        """Install a route to ``subnet`` via the named neighbour.

        A subnet installed twice keeps its first next hop.
        """
        self._entries.append((subnet, next_hop_name))
        mask = subnet.netmask
        hops = self._hops_by_mask.get(mask)
        if hops is None:
            self._hops_by_mask[mask] = hops = {}
            # A longer prefix is a numerically larger mask.
            self._hops_by_mask = dict(
                sorted(self._hops_by_mask.items(), reverse=True)
            )
        hops.setdefault(subnet.base, next_hop_name)
        self._changed()

    def set_default(self, next_hop_name: str) -> None:
        """Install a default route."""
        self._default = next_hop_name
        self._changed()

    def next_hop(self, dst_ip: int) -> str | None:
        """Longest-prefix-match lookup; falls back to the default route."""
        for mask, hops in self._hops_by_mask.items():
            hop = hops.get(dst_ip & mask)
            if hop is not None:
                return hop
        return self._default

    def routes(self) -> tuple[tuple[Subnet, str], ...]:
        """All installed routes (LPM order)."""
        return tuple(sorted(self._entries, key=lambda entry: -entry[0].prefix_len))

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
        return len(self._entries)


def shortest_path_tree(
    adjacency: Adjacency, source: str
) -> tuple[dict[str, float], dict[str, str]]:
    """Dijkstra from ``source``: ``(distance, predecessor)`` per reachable node.

    ``distance`` is keyed in settling order (``source`` first).  This
    mirrors ``networkx.single_source_dijkstra`` step for step — the
    same ``(distance, push count)`` heap order, neighbours relaxed in
    adjacency order, a predecessor replaced only by a strictly shorter
    path — so equal-delay ties resolve to the path networkx would
    return (``tests/sim/test_route_parity.py`` holds the two together).
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
            if u in dist:
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
    its shortest path there.
    """
    attachments = list(subnet_attachments)
    for attach_name, subnet in attachments:
        if attach_name not in routers:
            raise ValueError(f"subnet {subnet} attached to unknown router {attach_name}")
    for name, router in routers.items():
        dist, pred = shortest_path_tree(adjacency, name)
        # Settling order puts every predecessor before its successors,
        # so one pass carries each node's first hop down the tree.
        first_hop: dict[str, str] = {}
        for node in islice(dist, 1, None):
            via = pred[node]
            first_hop[node] = node if via == name else first_hop[via]
        table = router.routing_table
        if table is None:
            table = RoutingTable()
        for attach_name, subnet in attachments:
            hop = first_hop.get(attach_name)
            if hop is not None:  # neither local (no hop) nor unreachable
                table.add_route(subnet, hop)
        # Assigned last: a fresh table fills before any router watches it.
        router.routing_table = table
