"""Tests for repro.transport.tcp — the AIMD behaviour MAFIC relies on."""

import pytest

from repro.sim.packet import FlowKey, Packet, PacketType
from repro.sim.topology import build_dumbbell
from repro.transport.sink import AckingSink
from repro.transport.tcp import TcpSender
from tests.transport.cwnd_recorder import recording


def wire_tcp(topo, port=5000, sender_cls=TcpSender, **kwargs):
    """A ``sender_cls`` on src0 talking to an AckingSink on the victim."""
    src = topo.hosts["src0"]
    victim = topo.hosts["victim"]
    flow = FlowKey(src.address, victim.address, port, 80)
    sender = sender_cls(topo.sim, src, flow, **kwargs)
    src.bind_port(port, sender)
    sink = AckingSink(topo.sim, victim)
    if 80 not in getattr(victim, "_port_handlers", {}):
        victim.bind_port(80, sink)
    return sender, sink


class TestBasicTransfer:
    def test_transfers_data_and_grows_window(self):
        topo = build_dumbbell()
        sender, sink = wire_tcp(topo, initial_cwnd=2, ssthresh=32, max_cwnd=32)
        sender.start(at=0.0)
        topo.sim.run(until=2.0)
        assert sink.packets_received > 20
        assert sender.cwnd > 2  # slow start grew the window
        assert sender.high_ack > 0

    def test_respects_max_cwnd(self):
        topo = build_dumbbell()
        sender, _ = wire_tcp(topo, initial_cwnd=2, ssthresh=64, max_cwnd=4)
        sender.start(at=0.0)
        topo.sim.run(until=2.0)
        assert sender.cwnd <= 4

    def test_rtt_estimated(self):
        topo = build_dumbbell(bottleneck_bps=10e6)
        # Small window: negligible self-induced queueing.
        sender, _ = wire_tcp(topo, initial_cwnd=2, ssthresh=2, max_cwnd=2)
        sender.start(at=0.0)
        topo.sim.run(until=1.0)
        # Dumbbell RTT ~ 2*(0.001 + 0.010) plus serialization.
        assert sender.srtt == pytest.approx(0.024, abs=0.02)

    def test_app_limit_paces_sending(self):
        topo = build_dumbbell()
        sender, sink = wire_tcp(topo, app_limit_bps=80e3)  # 10 pkts/s
        sender.start(at=0.0)
        topo.sim.run(until=2.0)
        assert sender.stats.packets_sent <= 22  # ~10/s * 2s + slack

    def test_stop_halts_sending(self):
        topo = build_dumbbell()
        sender, _ = wire_tcp(topo)
        sender.start(at=0.0)
        topo.sim.run(until=0.5)
        sent = sender.stats.packets_sent
        sender.stop()
        topo.sim.run(until=1.5)
        assert sender.stats.packets_sent == sent

    def test_double_start_rejected(self):
        topo = build_dumbbell()
        sender, _ = wire_tcp(topo)
        sender.start(at=0.0)
        with pytest.raises(RuntimeError):
            sender.start(at=0.5)

    def test_parameter_validation(self):
        topo = build_dumbbell()
        src = topo.hosts["src0"]
        flow = FlowKey(src.address, 1, 9999, 80)
        with pytest.raises(ValueError):
            TcpSender(topo.sim, src, flow, initial_cwnd=0.5)
        with pytest.raises(ValueError):
            TcpSender(topo.sim, src, flow, initial_cwnd=4, max_cwnd=2)


class _DropNth:
    """Link hook dropping exactly the packets whose seq is in ``seqs``."""

    def __init__(self, seqs):
        self.seqs = set(seqs)
        self.dropped = []

    def on_packet(self, packet, link, now):
        if packet.ptype is PacketType.DATA and packet.seq in self.seqs:
            self.seqs.discard(packet.seq)
            self.dropped.append((now, packet.seq))
            return False
        return True


class TestLossResponse:
    def test_fast_retransmit_on_drop(self):
        topo = build_dumbbell()
        sender, sink = wire_tcp(topo, initial_cwnd=8, ssthresh=8, max_cwnd=8)
        hook = _DropNth([10])
        topo.routers["left"].link_to("lasthop").add_head_hook(hook)
        sender.start(at=0.0)
        topo.sim.run(until=3.0)
        assert hook.dropped  # the drop happened
        assert sender.stats.retransmissions >= 1
        # Transfer continued past the hole.
        assert sender.high_ack > 11

    def test_window_halves_after_loss(self):
        topo = build_dumbbell()
        sender, _ = wire_tcp(topo, sender_cls=recording(TcpSender),
                             initial_cwnd=8, ssthresh=8, max_cwnd=8)
        hook = _DropNth([12])
        topo.routers["left"].link_to("lasthop").add_head_hook(hook)
        sender.start(at=0.0)
        topo.sim.run(until=3.0)
        halved = [w for _, w in sender.cwnd_history if w <= 4 + 3]
        assert halved  # ssthresh+3 inflation then back to ssthresh

    def test_timeout_on_total_blackout(self):
        topo = build_dumbbell()
        sender, _ = wire_tcp(topo, initial_cwnd=4, ssthresh=16)

        class _DropAll:
            def on_packet(self, packet, link, now):
                return packet.ptype is not PacketType.DATA

        topo.routers["left"].link_to("lasthop").add_head_hook(_DropAll())
        sender.start(at=0.0)
        topo.sim.run(until=3.0)
        assert sender.stats.timeouts >= 1
        assert sender.cwnd == 1.0

    def test_forged_dup_acks_trigger_retransmit(self):
        """The MAFIC probe path: 3+ dup ACKs make the sender back off."""
        topo = build_dumbbell()
        sender, _ = wire_tcp(topo, initial_cwnd=8, ssthresh=8, max_cwnd=8)
        sender.start(at=0.0)
        topo.sim.run(until=1.0)
        cwnd_before = sender.cwnd
        frontier = sender.high_ack
        for _ in range(3):
            forged = Packet(
                flow=sender.flow.reversed(),
                ptype=PacketType.DUP_ACK,
                ack=frontier,
                size=40,
            )
            sender.handle_packet(forged, topo.sim.now)
        assert sender.stats.dup_acks_received >= 3
        assert sender.ssthresh <= cwnd_before / 2 + 1e-9
        assert sender.stats.retransmissions >= 1

    def test_sending_rate_drops_after_probe(self):
        """End-to-end: a probing drop measurably slows the source."""
        topo = build_dumbbell()
        sender, _ = wire_tcp(topo, initial_cwnd=8, ssthresh=8, max_cwnd=8,
                             keep_send_times=True)
        sender.start(at=0.0)
        # Drop a window's worth mid-stream.
        hook = _DropNth(range(30, 38))
        topo.routers["left"].link_to("lasthop").add_head_hook(hook)
        topo.sim.run(until=4.0)
        before = sum(1 for t in sender.stats.send_times if 0.5 <= t < 1.0)
        # Find the drop time and look shortly after it.
        t_drop = hook.dropped[0][0]
        after = sum(
            1 for t in sender.stats.send_times if t_drop + 0.3 <= t < t_drop + 0.8
        )
        assert after < before
