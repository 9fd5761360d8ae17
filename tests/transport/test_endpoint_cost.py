"""What one endpoint action costs, in Python-level calls.

``tests/sim/test_hop_cost.py`` pins the forwarded hop at three frames;
these are the three things that happen where a path ends, counted the
same way (``sys.setprofile``, packet pool on as in a run, links idle):

(a) an in-order DATA arrival at the victim, through its ACK's departure —

    Host.receive -> AckingSink.handle_packet -> Packet.build_ack
      -> FlowKey.reversed -> Packet.acquire
      -> Host.send -> SimplexLink.send -> Simulator.schedule_anon
    then Packet.release of the arrival                        9 frames

(b) a zombie's tick on the attackers' shared jitter stream —

    CbrSender._tick -> _emit_one -> FlowAgent._send_data -> Packet.acquire
      -> Host.send -> SimplexLink.send -> Simulator.schedule_anon
    then UniformBuffer.next, Simulator.schedule_anon          9 frames
    (ten with a spoofer installed, which is one call)

(c) a new ACK at a Reno sender whose window then releases one segment —

    Host.receive -> TcpSender.handle_packet -> _on_new_ack
      -> _update_rtt, _restart_rto -> Simulator.postpone
    then _try_send -> _send_segment -> FlowAgent._send_data
      -> Packet.acquire -> Host.send -> SimplexLink.send
      -> Simulator.schedule_anon
    then Packet.release of the ACK                           14 frames

The compiled scheduler's ``schedule_anon`` and ``postpone`` are C, so it
sees 8, 7 and 12.  Each bound is what the code reaches, so a frame put
back fails: a ``super()`` hop to count the arrival, a property for the
flow hash or the interval or the segments in flight, a helper between
the sink and ``build_ack``, a build step apart from the send step, an
``Event`` handle for a tick nobody cancels.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from repro.sim._core import ENGINE_IMPL
from repro.sim.engine import PySimulator, Simulator
from repro.sim.link import SimplexLink
from repro.sim.node import Host
from repro.sim.packet import FlowKey, Packet, PacketType, enable_packet_pool
from repro.sim.queues import DropTailQueue
from repro.transport.sink import AckingSink
from repro.transport.tcp import TcpSender
from repro.transport.udp import CbrSender
from repro.util.rng import UniformBuffer

ACTIONS = 100
HERE, THERE = 0x0A000005, 0x0A010007


@pytest.fixture(autouse=True)
def _pooled():
    """As inside ``run_experiment``: packets are recycled, not built."""
    enable_packet_pool(True)
    yield
    enable_packet_pool(False)


class _Gateway:
    """Terminal node: two frames per packet sent, subtracted below."""

    name = "gw"

    def __init__(self):
        self.arrivals = 0

    def receive(self, packet, via=None):
        self.arrivals += 1
        packet.release()


def _host(sim):
    """One end host whose uplink is never busy when the next packet leaves."""
    host, gateway = Host(sim, "h", HERE), _Gateway()
    host.attach_link(SimplexLink(sim, host, gateway, 100e6, 0.001, DropTailQueue(8)))
    host.gateway = gateway
    return host, gateway


def _calls_per_action(sim, gateway):
    """Python calls per action over the next ``ACTIONS`` of them, with the
    run loop and the gateway's two frames a packet taken out.  An action
    is two events, itself and its packet's delivery; the caller has
    already run its warm-up (pool, memos, first RTT)."""
    before = gateway.arrivals
    calls = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        sim.run(max_events=2 * ACTIONS)
    finally:
        sys.setprofile(previous)

    sent = gateway.arrivals - before
    assert sent == ACTIONS, calls  # one packet out per action, none lost
    harness = calls["run"] + calls["_loop"] + 2 * sent
    return (sum(calls.values()) - harness) / ACTIONS, dict(calls)


def _arrival_cost(sim):
    host, gateway = _host(sim)
    sink = AckingSink(sim, host)
    host.bind_port(80, sink)
    flow = FlowKey(THERE, HERE, 4000, 80)
    for seq in range(ACTIONS + 1):
        sim.schedule_at(seq + 0.5, host.receive, Packet(flow=flow, seq=seq))
    sim.run(until=1.0)
    per_action, calls = _calls_per_action(sim, gateway)
    assert sink.frontiers() == {flow.hashed(): ACTIONS + 1}
    assert (sink.acks_sent, sink.dup_acks_sent) == (ACTIONS + 1, 0)
    return per_action, calls


def _tick_cost(sim):
    host, gateway = _host(sim)
    rng = np.random.default_rng(7)
    sender = CbrSender(
        sim, host, FlowKey(HERE, THERE, 4000, 80), rate_bps=8000.0,
        packet_size=1000, is_attack=True, jitter=0.1, rng=rng,
        jitter_buffer=UniformBuffer(rng, chunk=4 * ACTIONS),
    )
    sender.start(at=0.5)  # a tick a second, give or take the jitter
    sim.run(until=1.0)
    per_action, calls = _calls_per_action(sim, gateway)
    assert calls["_tick"] == ACTIONS and sender.stats.packets_sent == 1 + ACTIONS
    return per_action, calls


def _new_ack_cost(sim):
    host, gateway = _host(sim)
    flow = FlowKey(HERE, THERE, 4000, 80)
    sender = TcpSender(sim, host, flow, initial_cwnd=4, ssthresh=2, max_cwnd=4)
    host.bind_port(4000, sender)
    sender.start(at=0.0)
    # The window is full and stays at its cap: each cumulative ACK of one
    # segment slides it by one.  Twenty ACKs settle the RTO estimate at
    # its floor, so every later one postpones the timer in place, and the
    # whole train is in before any stale deadline surfaces.
    warm, spacing = 20, 0.001
    for i in range(warm + ACTIONS):
        when = 0.1 + spacing * i
        sim.schedule_at(
            when, host.receive,
            Packet(flow=flow.reversed(), ptype=PacketType.ACK, ack=i + 1,
                   size=40, ts_val=when),
        )
    sim.run(until=0.1 + spacing * (warm - 0.5))
    per_action, calls = _calls_per_action(sim, gateway)
    assert calls["_on_new_ack"] == calls["_send_segment"] == ACTIONS, calls
    assert sender.stats.timeouts == 0 and sender.cwnd == 4.0
    assert sender.srtt is not None and sender._rto_event is not None
    return per_action, calls


COSTS = [
    (_arrival_cost, 9, 8),
    (_tick_cost, 9, 7),
    (_new_ack_cost, 14, 12),
]
IDS = ["data-arrival", "cbr-tick", "tcp-new-ack"]


@pytest.mark.parametrize("measure,pure,compiled", COSTS, ids=IDS)
def test_an_endpoint_action_costs_this_many_python_calls(measure, pure, compiled):
    per_action, calls = measure(PySimulator())
    assert per_action == pure, calls


@pytest.mark.skipif(ENGINE_IMPL != "compiled", reason="compiled core not built")
@pytest.mark.parametrize("measure,pure,compiled", COSTS, ids=IDS)
def test_an_endpoint_action_costs_less_on_the_compiled_core(measure, pure, compiled):
    per_action, calls = measure(Simulator())
    assert per_action == compiled, calls
