"""Tests for repro.transport.sink."""

import pytest

from repro.sim.link import SimplexLink
from repro.sim.node import Host, Router
from repro.sim.packet import FlowKey, Packet, PacketType
from repro.transport.sink import AckingSink, CountingSink


def data(flow, seq, ts_val=0.0):
    return Packet(flow=flow, seq=seq, ts_val=ts_val)


class TestCountingSink:
    def test_counts_data_only(self, sim):
        sink = CountingSink(sim)
        flow = FlowKey(1, 2, 3, 4)
        sink.handle_packet(data(flow, 0), 0.0)
        sink.handle_packet(Packet(flow=flow, ptype=PacketType.ACK), 0.0)
        assert sink.packets_received == 1

    def test_attack_vs_legit_split(self, sim):
        sink = CountingSink(sim)
        flow = FlowKey(1, 2, 3, 4)
        p = data(flow, 0)
        p.is_attack = True
        sink.handle_packet(p, 0.0)
        sink.handle_packet(data(flow, 1), 0.0)
        assert sink.attack_packets_received == 1
        assert sink.legit_packets_received == 1

    def test_rate_window(self, sim):
        sink = CountingSink(sim, rate_window=1.0)
        flow = FlowKey(1, 2, 3, 4)
        sink.handle_packet(data(flow, 0), 0.0)
        sink.handle_packet(data(flow, 1), 0.5)
        assert sink.arrival_rate_bps(0.5) == pytest.approx(2 * 1000 * 8)

    def test_rate_zero_without_window(self, sim):
        sink = CountingSink(sim)
        assert sink.arrival_rate_bps(1.0) == 0.0

    def test_on_packet_callback(self, sim):
        seen = []
        sink = CountingSink(sim, on_packet=lambda p, t: seen.append((p, t)))
        sink.handle_packet(data(FlowKey(1, 2, 3, 4), 0), 1.5)
        assert seen[0][1] == 1.5


def _host_with_uplink(sim):
    host = Host(sim, "victim", 0x0A010001)
    router = Router(sim, "r")
    link = SimplexLink(sim, host, router)
    host.attach_link(link)
    host.gateway = router
    return host, link


class _Capture:
    """Link-head hook: keeps every packet offered to the link."""

    def __init__(self):
        self.packets = []

    def on_packet(self, packet, link, now):
        self.packets.append(packet)
        return True


def _capture_sends(link):
    """The list every packet offered to ``link`` is appended to."""
    capture = _Capture()
    link.add_head_hook(capture)
    return capture.packets


class TestAckingSink:
    def test_in_order_cumulative_acks(self, sim):
        host, link = _host_with_uplink(sim)
        sink = AckingSink(sim, host)
        flow = FlowKey(1, host.address, 9, 80)
        for seq in range(3):
            sink.handle_packet(data(flow, seq), 0.1 * seq)
        assert sink.acks_sent == 3
        assert sink.dup_acks_sent == 0
        assert link.packets_offered == 3

    def test_gap_produces_duplicate_acks(self, sim):
        host, _ = _host_with_uplink(sim)
        sink = AckingSink(sim, host)
        flow = FlowKey(1, host.address, 9, 80)
        sink.handle_packet(data(flow, 0), 0.0)
        sink.handle_packet(data(flow, 2), 0.1)  # hole at 1
        sink.handle_packet(data(flow, 3), 0.2)  # still duplicating
        assert sink.dup_acks_sent == 2

    def test_hole_fill_advances_frontier(self, sim):
        host, _ = _host_with_uplink(sim)
        sink = AckingSink(sim, host)
        flow = FlowKey(1, host.address, 9, 80)
        sink.handle_packet(data(flow, 0), 0.0)
        sink.handle_packet(data(flow, 2), 0.1)
        sink.handle_packet(data(flow, 1), 0.2)  # fills the hole
        assert sink.frontiers()[flow.hashed()] == 3

    def test_flows_tracked_independently(self, sim):
        host, _ = _host_with_uplink(sim)
        sink = AckingSink(sim, host)
        f1 = FlowKey(1, host.address, 9, 80)
        f2 = FlowKey(2, host.address, 9, 80)
        sink.handle_packet(data(f1, 0), 0.0)
        sink.handle_packet(data(f2, 5), 0.0)  # gap only in f2
        assert sink.dup_acks_sent == 1
        assert sink.frontiers()[f1.hashed()] == 1

    def test_ack_echoes_timestamp(self, sim):
        host, link = _host_with_uplink(sim)
        captured = _capture_sends(link)
        sink = AckingSink(sim, host)
        flow = FlowKey(1, host.address, 9, 80)
        sink.handle_packet(data(flow, 0, ts_val=0.42), 0.5)
        assert captured[0].ts_ecr == 0.42
        assert captured[0].ts_val == 0.5

    def test_ack_size(self, sim):
        host, link = _host_with_uplink(sim)
        captured = _capture_sends(link)
        sink = AckingSink(sim, host, ack_size=52)
        sink.handle_packet(data(FlowKey(1, host.address, 9, 80), 0), 0.0)
        assert captured[0].size == 52

    def test_non_data_ignored(self, sim):
        host, _ = _host_with_uplink(sim)
        sink = AckingSink(sim, host)
        sink.handle_packet(
            Packet(flow=FlowKey(1, host.address, 9, 80), ptype=PacketType.ACK),
            0.0,
        )
        assert sink.acks_sent == 0
        assert sink.packets_received == 0

    def test_stale_retransmission_reacked(self, sim):
        host, _ = _host_with_uplink(sim)
        sink = AckingSink(sim, host)
        flow = FlowKey(1, host.address, 9, 80)
        sink.handle_packet(data(flow, 0), 0.0)
        sink.handle_packet(data(flow, 0), 0.1)  # duplicate delivery
        assert sink.acks_sent == 2
        assert sink.frontiers()[flow.hashed()] == 1

    def test_a_flow_that_never_saw_a_gap_holds_no_reorder_set(self, sim):
        """Per-flow state is never freed, and under source rotation every
        attack packet that reaches the victim is a new flow: such a flow
        costs one slotted record, and a set only once it has a gap."""
        host, _ = _host_with_uplink(sim)
        sink = AckingSink(sim, host)
        flows = [FlowKey(src, host.address, 9, 80) for src in range(1, 1001)]
        for flow in flows:
            sink.handle_packet(data(flow, 0), 0.0)
        assert sink.frontiers() == {flow.hashed(): 1 for flow in flows}
        states = list(sink._flows.values())
        assert len(states) == 1000
        assert all(state.ooo is None for state in states)
        assert not hasattr(states[0], "__dict__")
        sink.handle_packet(data(flows[0], 5), 0.0)  # the first gap
        assert [s.ooo for s in states if s.ooo is not None] == [{5}]
