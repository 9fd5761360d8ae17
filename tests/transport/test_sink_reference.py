"""The per-flow-record ``AckingSink`` must be the four-dict one, bit for bit.

The receiver used to keep four dicts keyed by flow hash (frontier,
reorder set, held ACK, held ACK's timer) and walk
``_flush_pending -> _send_ack -> build_ack`` for every arrival; it now
keeps one slotted record per flow and ACKs in the arrival's own frame.
The replaced formulation is spelled out here as the reference, and
Hypothesis drives both with the same arrival streams — in-order runs,
gaps, hole fills, duplicates, stale retransmissions, non-DATA noise,
over one to three interleaved flows, with the delayed-ACK timer firing
between some arrivals and not others.  Every ACK (time, flow, cumulative
ack, echoed timestamp, size, *uid*), every counter, and the number of
live timers after every arrival must match: an ACK built twice, built in
another order, or a timer left armed moves a uid or a ``seq`` draw and
fails here.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.packet import FlowKey, Packet, PacketType, reset_packet_ids
from repro.transport.sink import AckingSink, CountingSink

VICTIM = 0x0A010001
FLOWS = [FlowKey(src, VICTIM, 4000 + src, 80) for src in (1, 2, 3)]


class FourDictSink(CountingSink):
    """``AckingSink`` as it was: four per-flow dicts, a fresh ``set()``
    per arrival, the counting in ``super()``, the ACK four calls away."""

    def __init__(self, sim, host, ack_size=40, delayed_ack=0.0):
        super().__init__(sim)
        self.host = host
        self.ack_size = int(ack_size)
        self.delayed_ack = float(delayed_ack)
        self._next_expected = {}
        self._ooo = {}
        self._pending_ack = {}
        self._pending_events = {}
        self.acks_sent = 0
        self.dup_acks_sent = 0
        self.delayed_acks_coalesced = 0

    def handle_packet(self, packet, now):
        if not super().handle_packet(packet, now):
            return False
        key = packet.flow_hash
        expected = self._next_expected.get(key, 0)
        buffered = self._ooo.setdefault(key, set())
        in_order = False
        if packet.seq == expected:
            in_order = True
            expected += 1
            while expected in buffered:
                buffered.discard(expected)
                expected += 1
            self._next_expected[key] = expected
        elif packet.seq > expected:
            buffered.add(packet.seq)
            self.dup_acks_sent += 1
        frontier = self._next_expected.get(key, expected)
        if self.delayed_ack > 0 and in_order:
            self._delayed_ack_path(packet, key, now)
        else:
            self._flush_pending(key)
            self._send_ack(packet.flow, packet.ts_val, frontier, now)
        return True

    def _delayed_ack_path(self, packet, key, now):
        if key in self._pending_ack:
            event = self._pending_events.pop(key, None)
            if event is not None:
                event.cancel()
            self._pending_ack.pop(key, None)
            self.delayed_acks_coalesced += 1
            self._send_ack(packet.flow, packet.ts_val, self._next_expected[key], now)
            return
        self._pending_ack[key] = (packet.flow, packet.ts_val)
        self._pending_events[key] = self.sim.schedule(
            self.delayed_ack, self._ack_timer_fired, key
        )

    def _ack_timer_fired(self, key):
        pending = self._pending_ack.pop(key, None)
        self._pending_events.pop(key, None)
        if pending is None:
            return
        flow, ts_val = pending
        self._send_ack(flow, ts_val, self._next_expected.get(key, 0), self.sim.now)

    def _flush_pending(self, key):
        pending = self._pending_ack.pop(key, None)
        event = self._pending_events.pop(key, None)
        if event is not None:
            event.cancel()
        if pending is not None:
            flow, ts_val = pending
            self._send_ack(flow, ts_val, self._next_expected.get(key, 0), self.sim.now)

    def _send_ack(self, flow, data_ts_val, ack_seq, now):
        ack = Packet.acquire(
            flow=flow.reversed(), ptype=PacketType.ACK, size=self.ack_size,
            seq=0, ack=ack_seq, ts_val=now, ts_ecr=data_ts_val, created_at=now,
        )
        self.acks_sent += 1
        self.host.send(ack)


class _Uplink:
    """Stands in for the victim host: logs every ACK handed to it."""

    def __init__(self, sim):
        self.sim = sim
        self.acks = []

    def send(self, p):
        assert p.ptype is PacketType.ACK and p.seq == 0 and not p.is_attack
        assert p.ts_val == p.created_at == self.sim.now
        self.acks.append((self.sim.now, p.flow, p.ack, p.ts_ecr, p.size, p.uid))
        return True


# One arrival: how long after the previous one, on which flow, and where
# its seq lands relative to the highest seq that flow has sent so far.
_arrival = st.tuples(
    st.sampled_from([0.0, 0.01, 0.03, 0.05, 0.1]),
    st.integers(0, 2),
    st.sampled_from(["next", "next", "next", "skip", "back", "ack"]),
    st.integers(1, 4),
)


def _drive(sink_cls, arrivals, n_flows, delayed_ack, ack_size):
    reset_packet_ids()
    sim = Simulator()
    uplink = _Uplink(sim)
    sink = sink_cls(sim, uplink, ack_size=ack_size, delayed_ack=delayed_ack)
    timers = []

    def deliver(flow, seq, ptype):
        now = sim.now
        sink.handle_packet(
            Packet(flow=flow, ptype=ptype, seq=seq, ts_val=now - 0.004), now
        )
        # Whatever is pending beyond the arrivals still to come is a
        # delayed-ACK timer.
        timers.append(sim.pending() - (len(arrivals) - len(timers) - 1))

    when = 0.0
    high = [-1] * n_flows  # highest seq each flow has put on the wire
    for gap, index, kind, n in arrivals:
        when += gap
        index %= n_flows
        ptype = PacketType.DATA
        if kind == "next":  # the in-order case, when nothing is missing
            seq = high[index] = high[index] + 1
        elif kind == "skip":  # leaves a hole of n segments
            seq = high[index] = high[index] + 1 + n
        elif kind == "back":  # a hole fill, a duplicate or a stale copy
            seq = max(0, high[index] - n)
        else:  # not DATA: ignored, uncounted
            seq, ptype = 0, PacketType.ACK
        sim.schedule_at(when, deliver, FLOWS[index], seq, ptype)
    sim.run(until=when)
    armed = sim.pending()  # delayed-ACK timers still waiting
    sim.run()
    counters = (
        sink.acks_sent, sink.dup_acks_sent, sink.delayed_acks_coalesced,
        sink.packets_received, sink.bytes_received,
        sink.legit_packets_received, sink.attack_packets_received,
    )
    return sink, (uplink.acks, counters, timers, armed,
                  sim.events_executed, sim.queue_stats()["pushes"])


@settings(max_examples=200, deadline=None)
@given(
    arrivals=st.lists(_arrival, min_size=1, max_size=40),
    n_flows=st.integers(1, 3),
    delayed_ack=st.sampled_from([0.0, 0.04]),
    ack_size=st.sampled_from([40, 52]),
)
def test_same_acks_counters_and_timers_as_the_four_dict_sink(
    arrivals, n_flows, delayed_ack, ack_size
):
    old_sink, old = _drive(FourDictSink, arrivals, n_flows, delayed_ack, ack_size)
    new_sink, new = _drive(AckingSink, arrivals, n_flows, delayed_ack, ack_size)
    assert new == old
    # The old dict had no entry for a flow that never delivered in order;
    # the accessor lists such a flow at frontier 0.
    advanced = {k: v for k, v in new_sink.frontiers().items() if v}
    assert advanced == old_sink._next_expected
    assert set(new_sink.frontiers()) == set(old_sink._ooo)


def test_the_stream_shapes_the_property_must_cover_do_occur():
    """The strategy above reaches every branch: pinned on one hand-made
    stream so a change to the generator cannot hollow the property out."""
    arrivals = [
        (0.0, 0, "next", 1), (0.01, 0, "next", 1),   # hold, then ACK for two
        (0.01, 0, "next", 1), (0.1, 0, "next", 1),   # hold, timer fires
        (0.01, 0, "skip", 2),                        # gap, flushing a hold
        (0.0, 0, "back", 1), (0.0, 0, "back", 2),    # still a gap; the fill
        (0.0, 0, "back", 4),                         # stale, flushing a hold
        (0.0, 1, "ack", 1),                          # noise
    ]
    sink, (acks, counters, timers, armed, _, _) = _drive(
        AckingSink, arrivals, 2, 0.04, 40
    )
    assert counters[:5] == (7, 2, 1, 8, 8000)
    assert [a[2] for a in acks] == [2, 3, 4, 4, 4, 7, 7]
    assert timers == [1, 0, 1, 1, 0, 0, 1, 0, 0] and armed == 0
    assert sink.frontiers() == {FLOWS[0].hashed(): 7}
