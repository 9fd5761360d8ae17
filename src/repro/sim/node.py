"""Hosts and routers.

A :class:`Node` owns its outgoing links and forwards packets via a routing
table (routers) or delivers them to attached agents (hosts).  Agents — TCP
senders, sinks, attack sources, MAFIC itself on the control plane —
register per-port handlers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol

from repro.sim.address import Subnet
from repro.sim.packet import Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.link import SimplexLink
    from repro.sim.routing import RoutingTable

_CONTROL = PacketType.CONTROL


class PacketHandler(Protocol):
    """Anything that can accept a delivered packet."""

    def handle_packet(self, packet: Packet, now: float) -> None: ...


class Node:
    """Base network element: named, addressable, link-connected."""

    __slots__ = (
        "sim", "name", "address", "_links_out", "packets_received",
        "packets_forwarded", "packets_dropped_no_route", "packets_delivered",
    )

    def __init__(self, sim: "Simulator", name: str, address: int | None = None) -> None:
        self.sim = sim
        self.name = name
        self.address = address  # routers may be address-less
        self._links_out: dict[str, "SimplexLink"] = {}  # keyed by dst node name
        self.packets_received = 0
        self.packets_forwarded = 0
        self.packets_dropped_no_route = 0
        self.packets_delivered = 0

    def attach_link(self, link: "SimplexLink") -> None:
        """Register an outgoing link (called by topology builders)."""
        if link.src is not self:
            raise ValueError(f"link {link.name} does not originate at {self.name}")
        self._links_out[link.dst.name] = link

    def link_to(self, dst_name: str) -> "SimplexLink | None":
        """Outgoing link towards the named neighbour, if any."""
        return self._links_out.get(dst_name)

    @property
    def links_out(self) -> tuple["SimplexLink", ...]:
        """All outgoing links."""
        return tuple(self._links_out.values())

    def receive(self, packet: Packet, via: "SimplexLink | None" = None) -> None:
        """Entry point for packets arriving at this node."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}({self.name})"


class Router(Node):
    """A store-and-forward router with a static routing table.

    ``local_delivery`` handlers receive packets addressed to hosts this
    router fronts for (the last-hop case).  The router is also where
    control-plane agents (pushback coordinator) can be attached.

    Where a destination goes — a local handler, an outgoing link, or
    nowhere — is resolved once and memoized per destination block, so
    a forwarded packet costs one ``&`` and one dict probe.  The block is
    the destination under the longest prefix among the router's routing
    inputs (its routes and its local-delivery subnets): two addresses
    equal under that mask match the same prefixes, so they go the same
    way.  A local delivery given as a bare predicate, or a /32 route,
    makes the key the exact address.  Everything the resolution reads
    invalidates the memo when it changes: the local-delivery list, the
    outgoing links, the routing table and its routes.  Memo entries
    share their action tuple — one per local handler and one per
    outgoing link — so a miss toward a known target allocates nothing.
    """

    #: Memo bound: probes routed toward rotating spoofed sources can
    #: mint one fresh destination block per packet; past this many
    #: entries the memo is cleared rather than grown (stable flows
    #: repopulate it immediately, memory stays bounded).
    _MEMO_MAX = 1 << 16

    __slots__ = (
        "_routing_table", "_local_subnet_handlers", "_control_handlers",
        "_memo", "_memo_mask", "_link_actions",
    )

    def __init__(self, sim: "Simulator", name: str, address: int | None = None) -> None:
        super().__init__(sim, name, address)
        self._routing_table: "RoutingTable | None" = None
        # (matches, (handler.handle_packet, None), netmask): the action
        # is built here; a bare predicate's netmask is /32.
        self._local_subnet_handlers: list[tuple[Callable[[int], bool], tuple, int]] = []
        self._control_handlers: list[PacketHandler] = []
        # dst_ip & _memo_mask -> (handle_packet of a local handler, None)
        #                      | (None, send of the next link)
        #                      | (None, None) when there is no route.
        self._memo: dict[int, tuple] = {}
        # The longest prefix among the routing inputs (none yet: /0).
        self._memo_mask = 0
        # out-link -> its (None, link.send), built on the first miss to it.
        self._link_actions: dict["SimplexLink", tuple] = {}

    def _forget(self) -> None:
        """Drop every memoized route and link action, and re-derive the
        memo's key mask (an input changed)."""
        self._memo.clear()
        self._link_actions.clear()
        table = self._routing_table
        mask = table.longest_netmask() if table is not None else 0
        for _, _, netmask in self._local_subnet_handlers:
            mask |= netmask  # prefix masks: the OR is the longest
        self._memo_mask = mask

    @property
    def routing_table(self) -> "RoutingTable | None":
        """The longest-prefix-match table forwarding consults (assignable)."""
        return self._routing_table

    @routing_table.setter
    def routing_table(self, table: "RoutingTable | None") -> None:
        if self._routing_table is not None:
            self._routing_table.unwatch(self._forget)
        self._routing_table = table
        if table is not None:
            table.watch(self._forget)
        self._forget()

    def attach_link(self, link: "SimplexLink") -> None:
        """Register an outgoing link (called by topology builders)."""
        super().attach_link(link)
        self._forget()

    def add_local_delivery(
        self, matches: Subnet | Callable[[int], bool], handler: PacketHandler
    ) -> None:
        """Deliver packets whose dst is in ``matches`` to ``handler``.

        ``matches`` is a :class:`~repro.sim.address.Subnet`, or a predicate
        on the address.  A predicate must be pure in the address — the
        same answer for the same address for as long as it is installed —
        because its verdict is memoized per destination; it also makes
        the memo key the exact address, where a subnet lets the key stay
        a block.
        """
        if isinstance(matches, Subnet):
            netmask, matches = matches.netmask, matches.contains
        else:
            netmask = 0xFFFFFFFF
        self._local_subnet_handlers.append(
            (matches, (handler.handle_packet, None), netmask)
        )
        self._forget()

    def add_control_handler(self, handler: PacketHandler) -> None:
        """Receive CONTROL packets addressed to this router."""
        self._control_handlers.append(handler)

    def receive(self, packet: Packet, via: "SimplexLink | None" = None) -> None:
        """Forward per routing table, or deliver locally."""
        self.packets_received += 1
        dst_ip = packet.flow.dst_ip
        if packet.ptype is _CONTROL and dst_ip == (self.address or -1):
            now = self.sim.now
            for handler in self._control_handlers:
                handler.handle_packet(packet, now)
            self.packets_delivered += 1
            packet.release()  # control handlers copy what they keep
            return
        action = self._memo.get(dst_ip & self._memo_mask)
        if action is None:
            action = self._resolve(dst_ip)
        deliver, send = action
        if send is not None:
            self.packets_forwarded += 1
            send(packet)
        elif deliver is not None:
            # Local delivery handlers may forward the packet onward
            # (e.g. down a host access link), so ownership transfers —
            # no release here.
            deliver(packet, self.sim.now)
            self.packets_delivered += 1
        else:
            self.packets_dropped_no_route += 1
            packet.release()

    def _resolve(self, dst_ip: int) -> tuple:
        """Work out and memoize where ``dst_ip``'s block goes (a memo miss)."""
        action: tuple = (None, None)
        for matches, deliver, _ in self._local_subnet_handlers:
            if matches(dst_ip):
                action = deliver
                break
        else:
            table = self._routing_table
            next_hop = table.next_hop(dst_ip) if table is not None else None
            link = self._links_out.get(next_hop) if next_hop is not None else None
            if link is not None:
                try:
                    action = self._link_actions[link]
                except KeyError:  # the first miss toward this link
                    action = self._link_actions[link] = (None, link.send)
        memo = self._memo
        if len(memo) >= self._MEMO_MAX:
            memo.clear()
        memo[dst_ip & self._memo_mask] = action
        return action


class Host(Node):
    """An end host: sources and sinks attach here by port.

    Packets addressed to this host are dispatched on ``dst_port``; a
    default handler catches everything unbound (and the forged dup-ACK
    probes MAFIC sends to spoofed addresses land here silently).
    """

    __slots__ = (
        "_port_handlers", "_default_handler", "_gateway", "_uplink_send",
        "unhandled_packets",
    )

    def __init__(self, sim: "Simulator", name: str, address: int) -> None:
        super().__init__(sim, name, address)
        self._port_handlers: dict[int, PacketHandler] = {}
        self._default_handler: PacketHandler | None = None
        self._gateway: Router | None = None
        # Bound ``send`` of the link to the gateway, resolved on the first
        # send() after either end of that lookup changes.
        self._uplink_send: Callable[[Packet], bool] | None = None
        self.unhandled_packets = 0

    @property
    def gateway(self) -> Router | None:
        """The router this host's traffic leaves through (assignable)."""
        return self._gateway

    @gateway.setter
    def gateway(self, router: Router | None) -> None:
        self._gateway = router
        self._uplink_send = None

    def attach_link(self, link: "SimplexLink") -> None:
        """Register an outgoing link (called by topology builders)."""
        super().attach_link(link)
        self._uplink_send = None

    def bind_port(self, port: int, handler: PacketHandler) -> None:
        """Attach a transport agent to a local port."""
        if port in self._port_handlers:
            raise ValueError(f"port {port} already bound on {self.name}")
        self._port_handlers[port] = handler

    def unbind_port(self, port: int) -> None:
        """Detach whatever is bound at ``port``."""
        self._port_handlers.pop(port, None)

    def set_default_handler(self, handler: PacketHandler) -> None:
        """Handler for packets to unbound ports."""
        self._default_handler = handler

    def receive(self, packet: Packet, via: "SimplexLink | None" = None) -> None:
        """Dispatch to the agent bound at the packet's destination port.

        A host is a packet's terminal: after the bound agent's handler
        returns, the packet is recycled into the pool.  Handlers must
        copy any fields they keep (the library's sinks and senders do).
        """
        self.packets_received += 1
        now = self.sim.now
        handler = self._port_handlers.get(packet.flow.dst_port)
        if handler is None:
            handler = self._default_handler
            if handler is None:
                self.unhandled_packets += 1
                packet.release()
                return
        handler.handle_packet(packet, now)
        self.packets_delivered += 1
        packet.release()

    def send(self, packet: Packet) -> bool:
        """Hand a locally generated packet to the gateway link."""
        send = self._uplink_send
        if send is None:
            send = self._bind_uplink()
        return send(packet)

    def _bind_uplink(self) -> Callable[[Packet], bool]:
        gateway = self._gateway
        if gateway is None:
            raise RuntimeError(f"host {self.name} has no gateway")
        link = self.link_to(gateway.name)
        if link is None:
            raise RuntimeError(f"host {self.name} has no link to its gateway")
        self._uplink_send = link.send
        return link.send
