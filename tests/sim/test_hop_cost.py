"""What one forwarded hop costs, in Python-level calls.

The figures are sweeps of whole-domain runs, and a run is this chain
repeated a few hundred thousand times:

    Router.receive -> SimplexLink.send -> Simulator.schedule_anon

Three frames in the pure build: the router's memo hands back the next
link's bound ``send``; an idle drop-tail link counts the packet and
keeps it, calling neither ``enqueue`` nor ``dequeue``; ``schedule_anon``
validates and pushes one tuple onto the heap inline.  Two with the
compiled scheduler, whose ``schedule_anon`` is C.  The bound is pinned
so a refactor cannot quietly put a frame back: a property on the clock,
a helper between send() and the wire, a backlog probe on an idle link,
a queue object between the simulator and its heap.
"""

import sys
from collections import Counter

import pytest

from repro.sim.address import Subnet
from repro.sim._core import ENGINE_IMPL
from repro.sim.engine import PySimulator, Simulator
from repro.sim.link import SimplexLink
from repro.sim.node import Router
from repro.sim.packet import FlowKey, Packet
from repro.sim.queues import DropTailQueue
from repro.sim.routing import RoutingTable

PACKETS = 100
DST = 0x0A000005


class _End:
    """Terminal node: one frame per arrival, subtracted below."""

    name = "end"

    def __init__(self):
        self.arrivals = 0

    def receive(self, packet, via=None):
        self.arrivals += 1


def _chain(sim):
    """a -> b -> c -> end: three routers, each forwarding DST onward."""
    nodes = [Router(sim, "a"), Router(sim, "b"), Router(sim, "c"), _End()]
    for here, there in zip(nodes, nodes[1:]):
        here.attach_link(SimplexLink(sim, here, there, 100e6, 0.001, DropTailQueue(8)))
        table = RoutingTable()
        table.add_route(Subnet(DST & ~0xFF, 24), there.name)
        here.routing_table = table
    return nodes


def _calls_per_hop(sim):
    first, *_, end = _chain(sim)
    # Far enough apart that every link is idle again: the common case.
    for i in range(-1, PACKETS):
        sim.schedule_at(
            1.0 + i, first.receive, Packet(flow=FlowKey(1, DST, 3, 80), seq=i)
        )
    sim.run(until=0.5)  # the first packet fills the route memos, uncounted

    calls = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        sim.run()
    finally:
        sys.setprofile(previous)

    assert end.arrivals == PACKETS + 1
    assert calls["receive"] == 4 * PACKETS  # three routers and the end
    hops = 3 * PACKETS
    harness = calls["run"] + calls["_loop"] + PACKETS  # _End.receive
    return (sum(calls.values()) - harness) / hops, dict(calls)


def test_a_forwarded_hop_costs_at_most_six_python_calls():
    """Three, since the heap became the only queue (the name is the id
    the test has had since the bound was six)."""
    per_hop, calls = _calls_per_hop(PySimulator())
    assert per_hop <= 3, calls


@pytest.mark.skipif(ENGINE_IMPL != "compiled", reason="compiled core not built")
def test_a_forwarded_hop_costs_two_python_calls_on_the_compiled_core():
    per_hop, calls = _calls_per_hop(Simulator())
    assert per_hop <= 2, calls
