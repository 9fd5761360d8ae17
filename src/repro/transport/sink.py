"""Receiving sinks.

:class:`AckingSink` is a TCP receiver: cumulative ACKs, duplicate ACKs on
out-of-order arrivals, timestamp echo.  :class:`CountingSink` just counts
(the victim's view of raw arrival volume, used for UDP flows and for the
Fig. 4 time series).

The victim's :class:`AckingSink` sees every packet that survives the
defence, attack packets included, so an arrival is handled in one frame
(``tests/transport/test_endpoint_cost.py`` pins the chain,
``test_sink_reference.py`` the behaviour).
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


class _FlowState:
    """What the receiver keeps per flow: the reassembly frontier, the
    segments buffered beyond a gap, and a held (delayed) ACK."""

    __slots__ = ("expected", "ooo", "held", "timer")

    def __init__(self) -> None:
        self.expected = 0  # next in-order seq
        self.ooo: set[int] | None = None  # made at a gap, dropped once filled
        # (flow, ts_val) of the DATA arrival holding a delayed ACK.
        # Scalars, not the packet: a delivered packet is recycled into
        # the pool the moment the handler returns.
        self.held: tuple | None = None
        self.timer = None  # the held ACK's delayed-ACK timer handle


class AckingSink(CountingSink):
    """A TCP receiver: cumulative ACK generation with dup-ACKs.

    Keeps one :class:`_FlowState` per flow; every DATA arrival triggers
    exactly one ACK carrying the next expected segment, so a gap
    produces the duplicate-ACK train a Reno sender needs for fast
    retransmit.  :meth:`handle_packet` counts, reassembles and hands
    :meth:`Packet.build_ack` to the host itself.

    A flow whose one arrival so far landed beyond a gap (under source
    rotation, most attack flows) keeps that seq as a bare ``int``; a
    next arrival makes it the record it stands for.
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
        # flow_hash -> state, or the seq of a lone arrival beyond a gap
        self._flows: dict[int, _FlowState | int] = {}
        self.acks_sent = 0
        self.dup_acks_sent = 0
        self.delayed_acks_coalesced = 0

    def frontiers(self) -> dict[int, int]:
        """Next expected segment per flow hash, for every flow seen (0
        for one that has only arrived beyond a gap): the public read of
        the per-flow state, whose record is private."""
        return {
            key: 0 if state.__class__ is int else state.expected
            for key, state in self._flows.items()
        }

    def handle_packet(self, packet: Packet, now: float) -> bool:
        """Count, reassemble, and ACK one DATA arrival."""
        if packet.ptype is not _DATA:
            return False
        # CountingSink.handle_packet, inline: one frame an arrival.
        size = packet.size
        self.packets_received += 1
        self.bytes_received += size
        if packet.is_attack:
            self.attack_packets_received += 1
        else:
            self.legit_packets_received += 1
        if self._rate is not None:
            self._rate.record(now, size * 8.0)
        if self._on_packet is not None:
            self._on_packet(packet, now)

        flow = packet.flow
        key = flow._hash64
        seq = packet.seq
        state = self._flows.get(key)
        if state is None:
            if seq > 0:  # first seen beyond a gap: keep the seq alone
                self._flows[key] = seq
                self.dup_acks_sent += 1
                self.acks_sent += 1
                self.host.send(
                    Packet.build_ack(flow, packet.ts_val, 0, now, self.ack_size)
                )
                return True
            state = self._flows[key] = _FlowState()
        elif state.__class__ is int:  # a lone seq beyond a gap, as a record
            pending = state
            state = self._flows[key] = _FlowState()
            state.ooo = {pending}
        expected = state.expected
        if seq == expected:
            expected += 1
            ooo = state.ooo
            if ooo:
                while expected in ooo:
                    ooo.discard(expected)
                    expected += 1
                if not ooo:  # drained: the set goes until the next gap
                    state.ooo = None
            state.expected = expected
            if self.delayed_ack > 0:
                if state.held is None:  # hold this one's ACK (RFC 1122)
                    state.held = (flow, packet.ts_val)
                    state.timer = self.sim.schedule(
                        self.delayed_ack, self._release_held, state
                    )
                    return True
                # Second in-order segment: one ACK for both, now.
                state.timer.cancel()
                state.held = state.timer = None
                self.delayed_acks_coalesced += 1
        elif seq > expected:
            ooo = state.ooo
            if ooo is None:
                state.ooo = {seq}
            else:
                ooo.add(seq)
            self.dup_acks_sent += 1
        # else: stale retransmission; re-ACK the frontier.
        if state.held is not None:
            # Release the held ACK before answering out-of-order traffic.
            self._release_held(state)
        self.acks_sent += 1
        self.host.send(
            Packet.build_ack(flow, packet.ts_val, expected, now, self.ack_size)
        )
        return True

    def _release_held(self, state: _FlowState) -> None:
        """Send the held ACK now: its timer fired, or out-of-order
        traffic must not overtake it."""
        held = state.held
        if held is None:
            return
        state.timer.cancel()  # a no-op from the timer's own callback
        state.held = state.timer = None
        self.acks_sent += 1
        self.host.send(
            Packet.build_ack(
                held[0], held[1], state.expected, self.sim.now, self.ack_size
            )
        )
