"""A TCP-like AIMD sender.

Implements the congestion-control behaviour MAFIC relies on: slow start,
congestion avoidance, fast retransmit on three duplicate ACKs, and a
retransmission timeout with exponential backoff (RTT estimation per
RFC 6298).  When an ATR probes the flow by dropping packets and forging
duplicate ACKs back to the source, this sender reacts exactly as a real
TCP would — it halves its window, which is the "arrival rate decreased"
signal that moves the flow to the Nice Flow Table.

Sequence numbers count *segments* (each ``packet_size`` bytes of
payload), cwnd is in segments as in the NS-2 Tahoe/Reno agents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.packet import FlowKey, Packet, PacketType
from repro.transport.flow import FlowAgent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.node import Host

# RFC 6298 constants.
_ALPHA = 1.0 / 8.0
_BETA = 1.0 / 4.0
_K = 4.0
_MIN_RTO = 0.2  # NS-2 style floor (the RFC's 1 s is too coarse for 10 ms RTTs)
_MAX_RTO = 60.0


class TcpSender(FlowAgent):
    """Greedy (FTP-like) TCP sender with Reno-style congestion control.

    Parameters
    ----------
    initial_cwnd:
        Initial congestion window in segments.
    ssthresh:
        Initial slow-start threshold in segments.
    max_cwnd:
        Cap on the window (receiver window stand-in).
    app_limit_bps:
        Optional application rate limit; ``None`` means greedy.
    """

    DUP_ACK_THRESHOLD = 3

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        flow: FlowKey,
        packet_size: int = 1000,
        initial_cwnd: float = 2.0,
        ssthresh: float = 64.0,
        max_cwnd: float = 256.0,
        app_limit_bps: float | None = None,
        total_segments: int | None = None,
        on_complete=None,
        keep_send_times: bool = False,
    ) -> None:
        super().__init__(sim, host, flow, packet_size, is_attack=False,
                         keep_send_times=keep_send_times)
        if initial_cwnd < 1:
            raise ValueError("initial_cwnd must be >= 1 segment")
        if max_cwnd < initial_cwnd:
            raise ValueError("max_cwnd must be >= initial_cwnd")
        if total_segments is not None and total_segments < 1:
            raise ValueError("total_segments must be >= 1 when set")
        self.cwnd = float(initial_cwnd)
        self.ssthresh = float(ssthresh)
        self.max_cwnd = float(max_cwnd)
        self.app_limit_bps = app_limit_bps

        self.next_seq = 0  # next new segment to send
        self.high_ack = 0  # highest cumulative ACK received (next expected seq)
        self._dup_ack_count = 0
        self._in_fast_recovery = False
        self._recover_seq = 0

        self._srtt: float | None = None
        self._rttvar = 0.0
        self.rto = 1.0
        self._rto_event = None
        self._sent_at: dict[int, float] = {}  # seq -> send time (for RTT sampling)
        self._retransmitted: set[int] = set()  # Karn's rule: no RTT sample

        #: Finite transfer: stop after this many segments are cumulatively
        #: acknowledged (None = unbounded FTP-style source).
        self.total_segments = total_segments
        #: Called once, with the completion time, when a finite transfer's
        #: last segment is acknowledged.
        self.on_complete = on_complete
        self.completed_at: float | None = None

        self.cwnd_history: list[tuple[float, float]] = []
        self._app_gate_open = True
        self._last_peer_ts = 0.0  # timestamp echo (ts_ecr) for data we send

    # ------------------------------------------------------------------ API

    def start(self, at: float | None = None) -> None:
        """Begin the transfer at absolute time ``at`` (default now)."""
        if self.started:
            raise RuntimeError("sender already started")
        self.started = True
        when = self.sim.now if at is None else at
        self.sim.schedule_at(when, self._try_send)

    def handle_packet(self, packet: Packet, now: float) -> None:
        """Process an incoming ACK (real or a forged MAFIC probe)."""
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

    @property
    def in_flight(self) -> int:
        """Segments sent but not yet cumulatively acknowledged."""
        return max(0, self.next_seq - self.high_ack)

    @property
    def srtt(self) -> float | None:
        """Smoothed RTT estimate, or None before the first sample."""
        return self._srtt

    # ------------------------------------------------------- ACK processing

    def _on_new_ack(self, packet: Packet, now: float) -> None:
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

        # RTT sample from the earliest newly-acked, never-retransmitted seg.
        for seq in range(packet.ack - newly_acked, packet.ack):
            sent = self._sent_at.pop(seq, None)
            if sent is not None and seq not in self._retransmitted:
                self._update_rtt(now - sent)
            self._retransmitted.discard(seq)

        if self._in_fast_recovery:
            if packet.ack >= self._recover_seq:
                self._in_fast_recovery = False
                self.cwnd = self.ssthresh
            # Partial ACKs keep us in recovery (NewReno-lite).
        elif self.cwnd < self.ssthresh:
            self.cwnd = min(self.max_cwnd, self.cwnd + newly_acked)  # slow start
        else:
            self.cwnd = min(self.max_cwnd, self.cwnd + newly_acked / self.cwnd)

        self._record_cwnd(now)
        self._restart_rto()

    def _on_dup_ack(self, packet: Packet, now: float) -> None:
        self.stats.dup_acks_received += 1
        self._dup_ack_count += 1
        if self._in_fast_recovery:
            self.cwnd = min(self.max_cwnd, self.cwnd + 1)  # window inflation
            self._record_cwnd(now)
            return
        if self._dup_ack_count >= self.DUP_ACK_THRESHOLD:
            # Fast retransmit + fast recovery.
            self.ssthresh = max(2.0, self.cwnd / 2.0)
            self.cwnd = self.ssthresh + self.DUP_ACK_THRESHOLD
            self._in_fast_recovery = True
            self._recover_seq = self.next_seq
            self._retransmit(self.high_ack)
            self._record_cwnd(now)
            self._restart_rto()

    # ------------------------------------------------------------- sending

    def _try_send(self) -> None:
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

    def _open_app_gate(self) -> None:
        self._app_gate_open = True
        self._try_send()

    def _send_segment(self, seq: int) -> None:
        packet = self._make_data(seq)
        packet.ts_ecr = self._last_peer_ts
        self._sent_at[seq] = self.sim.now
        self._emit(packet)
        if self._rto_event is None:
            self._restart_rto()

    def _retransmit(self, seq: int) -> None:
        self.stats.retransmissions += 1
        self._retransmitted.add(seq)
        packet = self._make_data(seq)
        packet.ts_ecr = self._last_peer_ts
        self._emit(packet)

    # ----------------------------------------------------------- RTO logic

    def _update_rtt(self, sample: float) -> None:
        if sample < 0:
            return
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = (1 - _BETA) * self._rttvar + _BETA * abs(self._srtt - sample)
            self._srtt = (1 - _ALPHA) * self._srtt + _ALPHA * sample
        self.rto = min(_MAX_RTO, max(_MIN_RTO, self._srtt + _K * self._rttvar))

    def _restart_rto(self) -> None:
        ev = self._rto_event
        if self.in_flight > 0 and not self.stopped:
            if ev is not None:
                # Per-ACK deadline bump: postpone the pending timer in
                # place instead of a cancel+reschedule round trip.  One
                # seq draw either way, so this is bit-exact (the
                # event-churn regression test pins it against the eager
                # formulation).
                sim = self.sim
                self._rto_event = sim.postpone(ev, sim.now + self.rto)
            else:
                self._rto_event = self.sim.schedule(self.rto, self._on_timeout)
        elif ev is not None:
            ev.cancel()
            self._rto_event = None

    def _on_timeout(self) -> None:
        self._rto_event = None
        if self.stopped or self.in_flight == 0:
            return
        self.stats.timeouts += 1
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = 1.0
        self._in_fast_recovery = False
        self._dup_ack_count = 0
        self.rto = min(_MAX_RTO, self.rto * 2.0)  # exponential backoff
        self.next_seq = self.high_ack  # go-back-N resend from the hole
        self._record_cwnd(self.sim.now)
        self._retransmit_after_timeout()

    def _retransmit_after_timeout(self) -> None:
        self._retransmit(self.high_ack)
        self.next_seq = self.high_ack + 1
        self._restart_rto()

    def _record_cwnd(self, now: float) -> None:
        self.cwnd_history.append((now, self.cwnd))
