"""What a new flow costs, in Python-level work the hot path must not do.

Under per-packet source rotation (the ``rotation-stress`` preset) every
attack packet is a one-packet flow, and each one takes the path a known
flow skips:

    spoofer draws a source -> FlowKey hashes the 4-tuple
      -> the ATR judges the source's legality -> the prober forges a
      dup-ACK train -> each router on the way back misses its route memo

``tests/sim/test_hop_cost.py`` pins the known-flow hop; this pins the
new-flow path, counted the same way (``sys.setprofile``) or by identity:

(a) a ``FlowKey`` hashes its 4-tuple without encoding it into a byte
    string (``_encode``): three frames, ``__init__``, ``hash_int4`` and
    ``fmix64``;
(b) a probe train is fire-and-forget: ``schedule_anon`` per dup-ACK, no
    ``Event`` handle from ``schedule`` / ``schedule_at``;
(c) a route-memo miss toward a link the router already uses shares that
    link's one ``(None, send)`` action instead of building a tuple and a
    bound method, and the memo holds one entry per routed block, not
    one per probed address;
(d) a rotating spoofer draws plain ints (no ``IPv4Address``), and the
    legality test never calls ``Subnet.contains``.
"""

import gc
import sys
from collections import Counter

import numpy as np

from repro.attacks.spoofing import SpoofingModel, SpoofMode, make_spoofer
from repro.core.probe import DupAckProber
from repro.sim.address import AddressSpace, IPv4Address, Subnet
from repro.sim.engine import PySimulator
from repro.sim.link import SimplexLink
from repro.sim.node import Router
from repro.sim.packet import FlowKey, Packet
from repro.sim.queues import DropTailQueue
from repro.sim.routing import RoutingTable

KEYS = 200
VICTIM = 0x0A630001


def _profiled(fn):
    """Run ``fn()`` and return the calls it made, by code object.  The
    collector is paused: a ``gc.callbacks`` hook (Hypothesis installs
    one) would otherwise show up as frames of whatever ran."""
    calls = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    collecting = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls


def _by_name(calls):
    named = Counter()
    for code, count in calls.items():
        named[code.co_name] += count
    return named


def test_a_flow_key_hashes_without_a_byte_string():
    rng = np.random.default_rng(1)
    tuples = [
        (int(a), int(b), int(c), 80)
        for a, b, c in zip(
            rng.integers(2**32, size=KEYS), rng.integers(2**32, size=KEYS),
            rng.integers(2**16, size=KEYS),
        )
    ]
    keys = []

    def build():
        for src, dst, sport, dport in tuples:
            keys.append(FlowKey(src, dst, sport, dport).reversed())

    calls = _by_name(_profiled(build))
    assert calls["_encode"] == 0, calls
    # Each key and its reverse: __init__, hash_int4, fmix64; plus reversed().
    assert sum(calls.values()) - calls["build"] == KEYS * (2 * 3 + 1), calls


class _End:
    """Terminal node: counts what the router hands it."""

    def __init__(self, name):
        self.name = name
        self.arrivals = 0

    def receive(self, packet, via=None):
        self.arrivals += 1


def _atr(sim):
    """An ATR with two out-links, each routing one /16 of spoofable sources."""
    atr = Router(sim, "atr")
    table = RoutingTable()
    ends = {}
    for i, name in enumerate(("west", "east")):
        ends[name] = end = _End(name)
        # Every train leaves at once: the queue holds them all.
        atr.attach_link(SimplexLink(sim, atr, end, 100e6, 0.001, DropTailQueue(1000)))
        table.add_route(Subnet(0x0A000000 + (i << 16), 16), name)
    atr.routing_table = table
    return atr, ends


def _dropped(src_ip, seq):
    return Packet(flow=FlowKey(src_ip, VICTIM, 5000, 80), seq=seq, ts_val=0.5)


def test_a_probe_train_creates_no_event_handle():
    sim = PySimulator()
    atr, _ = _atr(sim)
    prober = DupAckProber(sim, atr, dup_acks_per_probe=3, spacing=0.002)
    packets = [_dropped(0x0A000001 + i, i) for i in range(KEYS)]

    def probe_all():
        for packet in packets:
            prober.probe(packet)

    calls = _by_name(_profiled(probe_all))
    assert calls["schedule"] == calls["schedule_at"] == 0, calls
    assert calls["schedule_anon"] == 3 * KEYS, calls
    sim.run()
    assert prober.probes_sent == 3 * KEYS


def test_probes_toward_distinct_sources_share_one_action_per_out_link():
    sim = PySimulator()
    atr, ends = _atr(sim)
    prober = DupAckProber(sim, atr, dup_acks_per_probe=1)
    rng = np.random.default_rng(2)
    sources = {0x0A000000 + int(host) for host in rng.choice(2**17, 1000, replace=False)}
    assert len(sources) == 1000
    for seq, src in enumerate(sorted(sources)):
        prober.probe(_dropped(src, seq))
    sim.run()

    assert sum(end.arrivals for end in ends.values()) == 1000
    assert min(end.arrivals for end in ends.values()) > 0  # both links used
    # The memo keys a destination by its block under the longest route
    # (here /16): one entry per block the sources fall in.
    assert len(atr._memo) == len({src >> 16 for src in sources}) == 2
    actions = {id(action) for action in atr._memo.values()}
    assert len(actions) == len(atr.links_out) == 2


def _rotating_packets(mode):
    space = AddressSpace()
    for prefix in (24, 24, 20, 16):
        space.allocate_subnet(prefix)
    spoof = make_spoofer(
        SpoofingModel(mode=mode, rotate_per_packet=True),
        space, np.random.default_rng(3), true_address=0x0A000002,
    )
    return space, spoof, [_dropped(0x0A000002, i) for i in range(KEYS)]


def test_a_rotating_spoofer_builds_no_address_object():
    for mode in (SpoofMode.LEGIT_SUBNET, SpoofMode.ILLEGAL, SpoofMode.MIXED):
        space, spoof, packets = _rotating_packets(mode)

        def rotate():
            for packet in packets:
                spoof(packet)

        calls = _profiled(rotate)
        assert calls[IPv4Address.__post_init__.__code__] == 0, (mode, _by_name(calls))
        assert len({packet.flow for packet in packets}) > KEYS // 2


def test_a_legality_miss_calls_no_subnet_contains():
    space, spoof, packets = _rotating_packets(SpoofMode.MIXED)
    sources = [spoof(packet).src_ip for packet in packets]
    verdicts = []

    def judge():
        for src in sources:
            verdicts.append(space.is_legal_source(src))

    calls = _profiled(judge)
    assert calls[Subnet.contains.__code__] == 0, _by_name(calls)
    assert True in verdicts and False in verdicts
