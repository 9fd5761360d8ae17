"""The one-frame senders must be the ones they replaced, bit for bit.

A sender used to build a packet with a keyword ``Packet.acquire``
(``_make_data``), have ``_emit`` overwrite three of the fields that call
had just written, and — for a zombie — pass through a ``CbrSender._emit``
that only called ``super()``; a shared-stream tick asked ``schedule()``
for an ``Event`` nobody kept; ``TcpSender`` tested ``ptype`` against a
tuple built per ACK, probed the retransmit set per acked segment and
went through ``_record_cwnd`` and the ``in_flight`` property.  Those
formulations are spelled out here as the references.  Each test runs the
same scenario against both and compares every packet put on the wire
(time, seq, *uid*, both timestamps, ground-truth flag), the sender's
whole state, and the simulator's push and event counts — so a draw that
moves (a uid, a ``seq``, a jitter or spoof value) fails here.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.packet import FlowKey, Packet, PacketType, reset_packet_ids
from repro.sim.topology import build_dumbbell
from repro.transport.sink import AckingSink
from repro.transport.tcp import _MAX_RTO, TcpSender
from repro.transport.udp import CbrSender
from repro.util.rng import UniformBuffer


class _ParentEmit:
    """``FlowAgent``'s two-step send, as it was."""

    def _make_data(self, seq):
        return Packet.acquire(
            flow=self.flow, size=self.packet_size, seq=seq,
            is_attack=self.is_attack,
        )

    def _emit(self, packet):
        now = self.sim.now
        packet.created_at = now
        packet.ts_val = now
        packet.is_attack = self.is_attack
        size = packet.size
        stats = self.stats
        sent = self.host.send(packet)
        stats.packets_sent += 1
        stats.bytes_sent += size
        if stats.first_send_time is None:
            stats.first_send_time = now
        stats.last_send_time = now
        if self.keep_send_times:
            stats.send_times.append(now)
        return sent


class ParentTcpSender(_ParentEmit, TcpSender):
    """``TcpSender``'s ACK and send paths, as they were."""

    def handle_packet(self, packet, now):
        if packet.ptype not in (PacketType.ACK, PacketType.DUP_ACK):
            return
        self.stats.acks_received += 1
        if packet.ts_val > self._last_peer_ts:
            self._last_peer_ts = packet.ts_val
        if packet.ack > self.high_ack:
            self._on_new_ack(packet, now)
        else:
            self._on_dup_ack(packet, now)
        self._try_send()

    def _on_new_ack(self, packet, now):
        newly_acked = packet.ack - self.high_ack
        self.high_ack = packet.ack
        self._dup_ack_count = 0
        if (
            self.total_segments is not None
            and self.completed_at is None
            and self.high_ack >= self.total_segments
        ):
            self.completed_at = now
            self.stopped = True
            if self._rto_event is not None:
                self._rto_event.cancel()
                self._rto_event = None
            if self.on_complete is not None:
                self.on_complete(now)
            return
        for seq in range(packet.ack - newly_acked, packet.ack):
            sent = self._sent_at.pop(seq, None)
            if sent is not None and seq not in self._retransmitted:
                self._update_rtt(now - sent)
            self._retransmitted.discard(seq)
        if self._in_fast_recovery:
            if packet.ack >= self._recover_seq:
                self._in_fast_recovery = False
                self.cwnd = self.ssthresh
        elif self.cwnd < self.ssthresh:
            self.cwnd = min(self.max_cwnd, self.cwnd + newly_acked)
        else:
            self.cwnd = min(self.max_cwnd, self.cwnd + newly_acked / self.cwnd)
        self._record_cwnd(now)
        self._restart_rto()

    def _on_dup_ack(self, packet, now):
        self.stats.dup_acks_received += 1
        self._dup_ack_count += 1
        if self._in_fast_recovery:
            self.cwnd = min(self.max_cwnd, self.cwnd + 1)
            self._record_cwnd(now)
            return
        if self._dup_ack_count >= self.DUP_ACK_THRESHOLD:
            self.ssthresh = max(2.0, self.cwnd / 2.0)
            self.cwnd = self.ssthresh + self.DUP_ACK_THRESHOLD
            self._in_fast_recovery = True
            self._recover_seq = self.next_seq
            self._retransmit(self.high_ack)
            self._record_cwnd(now)
            self._restart_rto()

    def _try_send(self):
        if self.stopped:
            return
        if self.app_limit_bps is not None and not self._app_gate_open:
            return
        window = int(self.cwnd)
        while self.next_seq < self.high_ack + window:
            if (
                self.total_segments is not None
                and self.next_seq >= self.total_segments
            ):
                return
            if self.app_limit_bps is not None:
                self._send_segment(self.next_seq)
                self.next_seq += 1
                self._app_gate_open = False
                gap = self.packet_size * 8.0 / self.app_limit_bps
                self.sim.schedule(gap, self._open_app_gate)
                return
            self._send_segment(self.next_seq)
            self.next_seq += 1

    def _send_segment(self, seq):
        packet = self._make_data(seq)
        packet.ts_ecr = self._last_peer_ts
        self._sent_at[seq] = self.sim.now
        self._emit(packet)
        if self._rto_event is None:
            self._restart_rto()

    def _retransmit(self, seq):
        self.stats.retransmissions += 1
        self._retransmitted.add(seq)
        packet = self._make_data(seq)
        packet.ts_ecr = self._last_peer_ts
        self._emit(packet)

    def _restart_rto(self):
        ev = self._rto_event
        if self.in_flight > 0 and not self.stopped:
            if ev is not None:
                sim = self.sim
                self._rto_event = sim.postpone(ev, sim.now + self.rto)
            else:
                self._rto_event = self.sim.schedule(self.rto, self._on_timeout)
        elif ev is not None:
            ev.cancel()
            self._rto_event = None

    def _on_timeout(self):
        self._rto_event = None
        if self.stopped or self.in_flight == 0:
            return
        self.stats.timeouts += 1
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = 1.0
        self._in_fast_recovery = False
        self._dup_ack_count = 0
        self.rto = min(_MAX_RTO, self.rto * 2.0)
        self.next_seq = self.high_ack
        self._record_cwnd(self.sim.now)
        self._retransmit_after_timeout()

    def _record_cwnd(self, now):
        self.cwnd_history.append((now, self.cwnd))


class ParentCbrSender(_ParentEmit, CbrSender):
    """``CbrSender``'s emission and shared-stream tick, as they were."""

    def _emit_one(self):
        packet = self._make_data(self._seq)
        self._seq += 1
        if self._spoof is not None:
            packet = self._spoof(packet)
        self._emit(packet)

    def _tick(self):
        if self.stopped:
            return
        self._emit_one()
        gap = self.interval
        if self.jitter > 0:
            if self._use_buffer:
                u = self._jitter_buffer.next()
            else:
                u = float(self._rng.random())
            gap *= 1.0 + self.jitter * (2.0 * u - 1.0)
        self.sim.schedule(gap, self._tick)


def _wire_fields(p):
    return (p.seq, p.uid, p.flow, p.ptype, p.size, p.ack, p.ts_val, p.ts_ecr,
            p.created_at, p.is_attack, p.hop_count)


# ---------------------------------------------------------------- TCP


class _DropEveryKthData:
    """Link-head hook: loses every ``k``-th DATA segment offered."""

    def __init__(self, k):
        self.k = k
        self.seen = 0

    def on_packet(self, packet, link, now):
        if packet.ptype is not PacketType.DATA:
            return True
        self.seen += 1
        return self.seen % self.k != 0


class _Tap:
    """Link-head hook: logs everything the source puts on its uplink."""

    def __init__(self):
        self.log = []

    def on_packet(self, packet, link, now):
        self.log.append((now, *_wire_fields(packet)))
        return True


def _run_tcp(sender_cls, *, k, delayed_ack=0.0, until=4.0, **sender_kwargs):
    reset_packet_ids()
    topo = build_dumbbell(bottleneck_bps=4e6)
    sim = topo.sim
    src, victim = topo.hosts["src0"], topo.hosts["victim"]
    flow = FlowKey(src.address, victim.address, 5000, 80)
    sender = sender_cls(sim, src, flow, keep_send_times=True, **sender_kwargs)
    src.bind_port(5000, sender)
    victim.bind_port(80, AckingSink(sim, victim, delayed_ack=delayed_ack))
    tap = _Tap()
    src.link_to("left").add_head_hook(tap)
    topo.routers["left"].link_to("lasthop").add_head_hook(_DropEveryKthData(k))

    def forge_probe():
        # What a MAFIC ATR sends: duplicate ACKs at the sender's frontier,
        # through the host like any arrival.  Plus one stray DATA packet
        # the sender must ignore.
        for ptype in (PacketType.DUP_ACK,) * 3 + (PacketType.DATA,):
            src.receive(Packet(flow=flow.reversed(), ptype=ptype,
                               ack=sender.high_ack, size=40, ts_val=sim.now))

    for when in (0.35, 0.9, 0.95, 2.2, 3.1):
        sim.schedule_at(when, forge_probe)
    sender.start(at=0.0)
    sim.run(until=until)
    state = {
        name: getattr(sender, name)
        for name in (
            "cwnd", "ssthresh", "next_seq", "high_ack", "rto", "srtt",
            "_rttvar", "_dup_ack_count", "_in_fast_recovery", "_recover_seq",
            "_sent_at", "_retransmitted", "_last_peer_ts", "_app_gate_open",
            "completed_at", "stopped", "in_flight",
        )
    }
    return {
        "wire": tap.log,
        "cwnd_history": sender.cwnd_history,
        "stats": dataclasses.asdict(sender.stats),
        "state": state,
        "rto_armed": sender._rto_event is not None,
        "pushes": sim.queue_stats()["pushes"],
        "events": sim.events_executed,
        "pending": sim.pending(),
    }


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=7, initial_cwnd=2, ssthresh=16, max_cwnd=32),
        dict(k=13, initial_cwnd=4, ssthresh=8, max_cwnd=16),
        dict(k=50, initial_cwnd=2, ssthresh=64, max_cwnd=256),
        dict(k=3, initial_cwnd=2, ssthresh=4, max_cwnd=8),  # timeouts too
        dict(k=11, initial_cwnd=2, ssthresh=16, max_cwnd=32, delayed_ack=0.04),
        dict(k=9, initial_cwnd=2, ssthresh=16, max_cwnd=32, total_segments=120),
        dict(k=9, initial_cwnd=2, ssthresh=16, max_cwnd=32, app_limit_bps=8e5),
        dict(k=9, initial_cwnd=3, ssthresh=16, max_cwnd=32, app_limit_bps=8e5,
             total_segments=40),
        # A window of one: every segment leaves with nothing yet in
        # flight, and the RTO is only ever armed by an ACK or a probe.
        dict(k=5, initial_cwnd=1, ssthresh=2, max_cwnd=1),
    ],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()
                            if k not in ("ssthresh", "max_cwnd")),
)
def test_tcp_ack_path_matches_the_parent_formulation(kwargs):
    old = _run_tcp(ParentTcpSender, **kwargs)
    new = _run_tcp(TcpSender, **kwargs)
    for key in old:
        assert new[key] == old[key], key
    # The scenario does what the docstring says it does.
    stats = new["stats"]
    assert stats["retransmissions"] > 0 and stats["dup_acks_received"] >= 9
    assert len(new["cwnd_history"]) > 20
    assert stats["send_times"] == [entry[0] for entry in new["wire"]]


def test_the_tcp_scenarios_reach_timeouts_and_completion():
    lossy = _run_tcp(TcpSender, k=3, initial_cwnd=2, ssthresh=4, max_cwnd=8)
    assert lossy["stats"]["timeouts"] > 0
    done = _run_tcp(TcpSender, k=9, initial_cwnd=2, ssthresh=16, max_cwnd=32,
                    total_segments=120)
    assert done["state"]["completed_at"] is not None and not done["rto_armed"]


# ---------------------------------------------------------------- CBR


class _LogHost:
    def __init__(self, sim):
        self.sim = sim
        self.log = []

    def send(self, packet):
        self.log.append((self.sim.now, *_wire_fields(packet)))
        return True


def _run_cbr(sender_cls, *, buffered, rotating, n_senders=3, until=1.5):
    reset_packet_ids()
    sim = Simulator()
    host = _LogHost(sim)
    rng = np.random.default_rng(2005)  # the zombies' one shared stream
    buffer = UniformBuffer(rng) if buffered else None
    senders = []
    for i in range(n_senders):
        flow = FlowKey(0x0A000001 + i, 0x0A010001, 2000 + i, 80)
        if rotating:  # a fresh source per packet, drawn from that stream
            def spoof(packet, flow=flow):
                packet.flow = FlowKey(int(rng.integers(1, 1 << 24)), flow.dst_ip,
                                      flow.src_port, flow.dst_port)
                return packet
        else:
            fixed = FlowKey(0x0B000001 + i, flow.dst_ip, flow.src_port, 80)

            def spoof(packet, fixed=fixed):
                packet.flow = fixed
                return packet
        sender = sender_cls(
            sim, host, flow, rate_bps=1e6, packet_size=500, is_attack=True,
            jitter=0.1, rng=rng, spoof=spoof if i else None,
            keep_send_times=True, jitter_buffer=buffer,
        )
        sender.start(at=0.01 * i)
        senders.append(sender)
    sim.schedule_at(1.0, senders[0].stop)
    sim.run(until=until)
    return {
        "wire": host.log,
        "stats": [dataclasses.asdict(s.stats) for s in senders],
        "seq": [s._seq for s in senders],
        "pushes": sim.queue_stats()["pushes"],
        "events": sim.events_executed,
        "pending": sim.pending(),
        "next_draw": float(rng.random()),
    }


@pytest.mark.parametrize("buffered,rotating", [(True, False), (False, False),
                                               (False, True)])
def test_shared_stream_tick_matches_the_parent_formulation(buffered, rotating):
    old = _run_cbr(ParentCbrSender, buffered=buffered, rotating=rotating)
    new = _run_cbr(CbrSender, buffered=buffered, rotating=rotating)
    for key in old:
        assert new[key] == old[key], key
    assert len(new["wire"]) > 900 and new["pending"] == 2
    for now, *_, ts_val, ts_ecr, created_at, is_attack, _hops in new["wire"]:
        assert (ts_val, ts_ecr, created_at, is_attack) == (now, 0.0, now, True)
