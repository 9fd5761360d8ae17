"""Receiving sinks.

:class:`AckingSink` is a TCP receiver: cumulative ACKs, duplicate ACKs on
out-of-order arrivals, timestamp echo.  :class:`CountingSink` just counts
(the victim's view of raw arrival volume, used for UDP flows and for the
Fig. 4 time series).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.sim.packet import Packet, PacketType
from repro.util.stats import WindowedRate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.node import Host

_DATA = PacketType.DATA


class CountingSink:
    """Counts arrivals; optionally tracks a windowed arrival rate."""

    def __init__(
        self,
        sim: "Simulator",
        rate_window: float | None = None,
        on_packet: Callable[[Packet, float], None] | None = None,
    ) -> None:
        self.sim = sim
        self.packets_received = 0
        self.bytes_received = 0
        self.attack_packets_received = 0
        self.legit_packets_received = 0
        self._rate = WindowedRate(rate_window) if rate_window else None
        self._on_packet = on_packet

    def handle_packet(self, packet: Packet, now: float) -> bool:
        """Count one arrival; False for anything but DATA, which is ignored."""
        if packet.ptype is not _DATA:
            return False
        self.packets_received += 1
        self.bytes_received += packet.size
        if packet.is_attack:
            self.attack_packets_received += 1
        else:
            self.legit_packets_received += 1
        if self._rate is not None:
            self._rate.record(now, packet.size * 8.0)
        if self._on_packet is not None:
            self._on_packet(packet, now)
        return True

    def arrival_rate_bps(self, now: float) -> float:
        """Windowed arrival rate in bits/s (0 when no window configured)."""
        return self._rate.rate(now) if self._rate is not None else 0.0


class AckingSink(CountingSink):
    """A TCP receiver: cumulative ACK generation with dup-ACKs.

    Keeps an out-of-order buffer of segment numbers; every DATA arrival
    triggers exactly one ACK carrying the next expected segment, so a gap
    produces the duplicate-ACK train a Reno sender needs for fast
    retransmit.
    """

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        ack_size: int = 40,
        rate_window: float | None = None,
        on_packet: Callable[[Packet, float], None] | None = None,
        delayed_ack: float = 0.0,
    ) -> None:
        super().__init__(sim, rate_window=rate_window, on_packet=on_packet)
        if delayed_ack < 0:
            raise ValueError("delayed_ack must be non-negative")
        self.host = host
        self.ack_size = int(ack_size)
        #: RFC 1122 delayed-ACK timer (seconds); 0 disables.  With the
        #: timer armed, in-order arrivals ACK every second segment or at
        #: timer expiry; out-of-order arrivals still ACK immediately
        #: (the dup-ACK train fast retransmit depends on).
        self.delayed_ack = float(delayed_ack)
        self._next_expected: dict[int, int] = {}  # flow_hash -> next seq
        self._ooo: dict[int, set[int]] = {}  # flow_hash -> buffered seqs
        # flow_hash -> (flow, ts_val) of the DATA arrival holding a
        # delayed ACK.  Scalars, not the packet: a delivered packet is
        # recycled into the pool the moment the handler returns.
        self._pending_ack: dict[int, tuple] = {}
        self._pending_events: dict[int, object] = {}
        self.acks_sent = 0
        self.dup_acks_sent = 0
        self.delayed_acks_coalesced = 0

    def handle_packet(self, packet: Packet, now: float) -> bool:
        """Count, reassemble, and ACK one DATA arrival."""
        if not super().handle_packet(packet, now):  # the one type test
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
        # else: stale retransmission; re-ACK the frontier.
        frontier = self._next_expected.get(key, expected)
        if self.delayed_ack > 0 and in_order:
            self._delayed_ack_path(packet, key, now)
        else:
            self._flush_pending(key)
            self._send_ack(packet.flow, packet.ts_val, frontier, now)
        return True

    def _delayed_ack_path(self, packet: Packet, key: int, now: float) -> None:
        if key in self._pending_ack:
            # Second in-order segment: ACK immediately (RFC 1122).
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

    def _ack_timer_fired(self, key: int) -> None:
        pending = self._pending_ack.pop(key, None)
        self._pending_events.pop(key, None)
        if pending is None:
            return
        flow, ts_val = pending
        self._send_ack(flow, ts_val, self._next_expected.get(key, 0), self.sim.now)

    def _flush_pending(self, key: int) -> None:
        """Release any held ACK before answering out-of-order traffic."""
        pending = self._pending_ack.pop(key, None)
        event = self._pending_events.pop(key, None)
        if event is not None:
            event.cancel()
        if pending is not None:
            flow, ts_val = pending
            self._send_ack(flow, ts_val, self._next_expected.get(key, 0), self.sim.now)

    def _send_ack(self, flow, data_ts_val: float, ack_seq: int, now: float) -> None:
        ack = Packet.build_ack(flow, data_ts_val, ack_seq, now, size=self.ack_size)
        self.acks_sent += 1
        self.host.send(ack)
