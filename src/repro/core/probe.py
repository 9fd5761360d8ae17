"""Duplicate-ACK probe generation.

MAFIC's probe is behavioural: alongside dropping a suspicious flow's
packet, the ATR sends duplicate ACKs "to hosts with source IP address"
(Section III.A) — i.e. toward whatever the packet *claims* its source is.
A genuine TCP sender receives them (plus notices the loss) and slows
down; a zombie spoofing that address never sees them, and a
non-congestion-controlled sender ignores them.

The forged ACK mirrors what the real receiver would send: it flows from
the packet's destination back to its claimed source, acknowledging the
dropped packet's sequence number (so a Reno sender counts it as a
duplicate for fast retransmit).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.sim.packet import Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.node import Router


class DupAckProber:
    """Builds and injects forged duplicate-ACK probes at an ATR."""

    __slots__ = (
        "sim", "router", "dup_acks_per_probe", "ack_size", "spacing",
        "probes_sent", "on_probe",
    )

    def __init__(
        self,
        sim: "Simulator",
        router: "Router",
        dup_acks_per_probe: int = 3,
        ack_size: int = 40,
        spacing: float = 0.001,
    ) -> None:
        if dup_acks_per_probe < 0:
            raise ValueError("dup_acks_per_probe must be >= 0")
        if ack_size <= 0:
            raise ValueError("ack_size must be positive")
        if spacing < 0:
            raise ValueError("spacing must be non-negative")
        self.sim = sim
        self.router = router
        self.dup_acks_per_probe = int(dup_acks_per_probe)
        self.ack_size = int(ack_size)
        self.spacing = float(spacing)
        self.probes_sent = 0
        self.on_probe: Callable[[Packet], None] | None = None

    def probe(self, dropped_packet: Packet) -> None:
        """Send the duplicate-ACK train for one dropped packet.

        The fields the forged ACKs need are captured *now*: the dropped
        packet is recycled into the pool the moment the hook's drop
        returns, so the scheduled sends must not retain it.  Nothing
        cancels a probe, so the train goes out handle-free.
        """
        flow = dropped_packet.flow.reversed()
        seq = dropped_packet.seq
        ts_val = dropped_packet.ts_val
        sim = self.sim
        now = sim.now
        for i in range(self.dup_acks_per_probe):
            sim.schedule_anon(
                now + i * self.spacing, self._send_one, flow, seq, ts_val
            )

    def _send_one(self, flow, dropped_seq: int, dropped_ts_val: float) -> None:
        now = self.sim.now
        ack = Packet.acquire(
            flow=flow,
            ptype=PacketType.DUP_ACK,
            size=self.ack_size,
            seq=0,
            # ACK the dropped segment itself: to the sender this reads as
            # "receiver is still waiting for seq" — a duplicate.
            ack=dropped_seq,
            ts_val=now,
            ts_ecr=dropped_ts_val,
            created_at=now,
        )
        self.probes_sent += 1
        if self.on_probe is not None:
            self.on_probe(ack)
        # Inject at the ATR as if it arrived from the victim side; normal
        # routing carries it toward the claimed source.
        self.router.receive(ack)
