"""Discrete-event network simulator — the NS-2 replacement substrate.

The paper evaluates MAFIC inside NS-2; this package provides the minimal
faithful equivalent: an event-heap scheduler (:mod:`repro.sim.engine`),
packets with IP/TCP-ish headers (:mod:`repro.sim.packet`), simplex links
with bandwidth/delay and drop-tail or RED queues (:mod:`repro.sim.link`,
:mod:`repro.sim.queues`), hosts and routers with static shortest-path
routing (:mod:`repro.sim.node`, :mod:`repro.sim.routing`), topology
generators (:mod:`repro.sim.topology`), and a TrafficMonitor that
periodically computes the set-union traffic matrix
(:mod:`repro.sim.monitor`).  What the defence did is not logged here: it
goes through the agent's observer onto the event bus (:mod:`repro.obs`).

NS-2 attaches ``Connector`` objects at the head of each ``SimplexLink``;
our :class:`~repro.sim.link.SimplexLink` exposes the same seam through
``add_head_hook``, which is where both the LogLog counters and the MAFIC
dropper plug in.
"""

from repro.sim.address import AddressSpace, IPv4Address, Subnet
from repro.sim.engine import Event, Simulator
from repro.sim.link import SimplexLink
from repro.sim.node import Host, Node, Router
from repro.sim.packet import FlowKey, Packet, PacketType
from repro.sim.queues import DropTailQueue, DRRQueue, PacketQueue, REDQueue
from repro.sim.routing import RoutingTable, build_static_routes
from repro.sim.topology import (
    Topology,
    build_dumbbell,
    build_star_domain,
    build_transit_stub_domain,
    build_tree_domain,
)
from repro.sim.monitor import TrafficMonitor

__all__ = [
    "AddressSpace",
    "DRRQueue",
    "DropTailQueue",
    "Event",
    "FlowKey",
    "Host",
    "IPv4Address",
    "Node",
    "Packet",
    "PacketQueue",
    "PacketType",
    "REDQueue",
    "Router",
    "RoutingTable",
    "Simulator",
    "SimplexLink",
    "Subnet",
    "Topology",
    "TrafficMonitor",
    "build_dumbbell",
    "build_star_domain",
    "build_static_routes",
    "build_transit_stub_domain",
    "build_tree_domain",
]
