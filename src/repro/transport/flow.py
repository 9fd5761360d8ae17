"""Base flow-agent machinery shared by TCP and CBR senders."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.sim.packet import FlowKey, Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.node import Host

_DATA = PacketType.DATA


@dataclass
class FlowStats:
    """Sender-side counters every agent maintains."""

    packets_sent: int = 0
    bytes_sent: int = 0
    acks_received: int = 0
    dup_acks_received: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    first_send_time: float | None = None
    last_send_time: float | None = None
    send_times: list[float] = field(default_factory=list)

    def sending_rate_bps(self, window: float, now: float, packet_size: int) -> float:
        """Recent sending rate over the trailing ``window`` seconds."""
        if window <= 0:
            raise ValueError("window must be positive")
        cutoff = now - window
        recent = sum(1 for t in self.send_times if t > cutoff)
        return recent * packet_size * 8.0 / window


class FlowAgent:
    """Common base: owns a flow key, a host, and send bookkeeping.

    Subclasses implement :meth:`start` / :meth:`handle_packet`; the base
    provides :meth:`_send_data`, which builds, sends and counts a packet
    in one frame.  ``is_attack`` marks every emitted packet as
    ground-truth malicious for the metrics layer (the defence never
    reads it).
    """

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        flow: FlowKey,
        packet_size: int = 1000,
        is_attack: bool = False,
        keep_send_times: bool = False,
    ) -> None:
        if packet_size <= 0:
            raise ValueError("packet_size must be positive")
        self.sim = sim
        self.host = host
        self.flow = flow
        self.packet_size = int(packet_size)
        self.is_attack = bool(is_attack)
        self.keep_send_times = keep_send_times
        #: Per-packet source rewriter, run between build and send; only
        #: a zombie (``CbrSender(spoof=...)``) installs one.
        self._spoof: Callable[[Packet], Packet] | None = None
        self.stats = FlowStats()
        self.started = False
        self.stopped = False

    def start(self, at: float | None = None) -> None:
        """Begin sending at absolute time ``at`` (default: now)."""
        raise NotImplementedError

    def stop(self) -> None:
        """Stop sending new packets."""
        self.stopped = True

    def handle_packet(self, packet: Packet, now: float) -> None:
        """Receive a packet addressed to this agent's source port."""
        raise NotImplementedError

    def _send_data(self, seq: int, ts_ecr: float = 0.0) -> bool:
        """Build DATA segment ``seq``, send it through the host, count it.

        The one place a sender makes a packet: the clock is read once and
        stamps ``ts_val`` and ``created_at`` as the packet is acquired.
        """
        now = self.sim.now
        packet = Packet.acquire(
            self.flow, _DATA, self.packet_size, seq, 0, now, ts_ecr, now,
            self.is_attack,
        )
        if self._spoof is not None:
            packet = self._spoof(packet)
        size = packet.size  # read before send: a dropped packet is recycled
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
