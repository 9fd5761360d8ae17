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

_ACK = PacketType.ACK
_DUP_ACK = PacketType.DUP_ACK


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

    __slots__ = (
        "cwnd", "ssthresh", "max_cwnd", "app_limit_bps", "next_seq",
        "high_ack", "_dup_ack_count", "_in_fast_recovery", "_recover_seq",
        "_srtt", "_rttvar", "rto", "_rto_event", "_sent_at",
        "_retransmitted", "total_segments", "on_complete", "completed_at",
        "_app_gate_open", "_last_peer_ts",
    )

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
        ptype = packet.ptype
        if ptype is not _ACK and ptype is not _DUP_ACK:
            return
        self.stats.acks_received += 1
        ts_val = packet.ts_val
        if ts_val > self._last_peer_ts:
            self._last_peer_ts = ts_val
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
        ack = packet.ack
        first = self.high_ack  # the earliest newly-acked segment
        newly_acked = ack - first
        self.high_ack = ack
        self._dup_ack_count = 0
        if (
            self.total_segments is not None
            and self.completed_at is None
            and ack >= self.total_segments
        ):
            self.completed_at = now
            self.stopped = True
            if self._rto_event is not None:
                self._rto_event.cancel()
                self._rto_event = None
            if self.on_complete is not None:
                self.on_complete(now)
            return

        # An RTT sample from every newly-acked segment that was never
        # retransmitted (Karn); the set is only probed while it holds
        # something, which outside loss recovery it does not.
        sent_at = self._sent_at
        retransmitted = self._retransmitted
        for seq in range(first, ack):
            sent = sent_at.pop(seq, None)
            if retransmitted and seq in retransmitted:
                retransmitted.discard(seq)
            elif sent is not None:
                self._update_rtt(now - sent)

        cwnd = self.cwnd
        if self._in_fast_recovery:
            if ack >= self._recover_seq:
                self._in_fast_recovery = False
                cwnd = self.ssthresh
            # Partial ACKs keep us in recovery (NewReno-lite).
        elif cwnd < self.ssthresh:
            cwnd = min(self.max_cwnd, cwnd + newly_acked)  # slow start
        else:
            cwnd = min(self.max_cwnd, cwnd + newly_acked / cwnd)
        self.cwnd = cwnd
        self._restart_rto()

    def _on_dup_ack(self, packet: Packet, now: float) -> None:
        self.stats.dup_acks_received += 1
        self._dup_ack_count += 1
        if self._in_fast_recovery:
            self.cwnd = min(self.max_cwnd, self.cwnd + 1)  # window inflation
            return
        if self._dup_ack_count >= self.DUP_ACK_THRESHOLD:
            # Fast retransmit + fast recovery.
            self.ssthresh = max(2.0, self.cwnd / 2.0)
            self.cwnd = self.ssthresh + self.DUP_ACK_THRESHOLD
            self._in_fast_recovery = True
            self._recover_seq = self.next_seq
            self._retransmit(self.high_ack)
            self._restart_rto()

    # ------------------------------------------------------------- sending

    def _try_send(self) -> None:
        if self.stopped:
            return
        app_limit = self.app_limit_bps
        if app_limit is not None and not self._app_gate_open:
            return
        # Sending changes neither the window nor the frontier, so the
        # first seq that may not go out is fixed before the loop.
        limit = self.high_ack + int(self.cwnd)
        total = self.total_segments
        if total is not None and total < limit:
            limit = total
        seq = self.next_seq
        if app_limit is not None:
            if seq < limit:  # one segment, then wait out its pacing gap
                self._send_segment(seq)
                self.next_seq = seq + 1
                self._app_gate_open = False
                gap = self.packet_size * 8.0 / app_limit
                self.sim.schedule(gap, self._open_app_gate)
            return
        while seq < limit:
            # next_seq moves after the send: _send_segment reads it to
            # decide whether anything is in flight yet.
            self._send_segment(seq)
            seq += 1
            self.next_seq = seq

    def _open_app_gate(self) -> None:
        self._app_gate_open = True
        self._try_send()

    def _send_segment(self, seq: int) -> None:
        self._sent_at[seq] = self.sim.now
        self._send_data(seq, self._last_peer_ts)
        if self._rto_event is None:
            self._restart_rto()

    def _retransmit(self, seq: int) -> None:
        self.stats.retransmissions += 1
        self._retransmitted.add(seq)
        self._send_data(seq, self._last_peer_ts)

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
        if self.next_seq > self.high_ack and not self.stopped:  # in flight
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
        self._retransmit_after_timeout()

    def _retransmit_after_timeout(self) -> None:
        self._retransmit(self.high_ack)
        self.next_seq = self.high_ack + 1
        self._restart_rto()
