"""Unresponsive senders: constant bit rate and on-off.

These agents ignore everything the network tells them — exactly the
behaviour that distinguishes a zombie (or a non-congestion-controlled
media stream) from a conforming TCP source under MAFIC's probe.

Tick generation is **batched** (PR 4): instead of one self-rescheduling
event per packet, a sender precomputes its departure times per horizon
chunk and rides a single reusable
:class:`~repro.sim.engine.SeriesEvent`.  Each departure still executes as
its own event (the interleaving with link/transport events is what the
paper's physics runs on), but the per-tick schedule call, event
allocation, and RNG scalar draw disappear.  Results are bit-identical
because the draws come from the same streams in the same order:

* ``jitter == 0`` — departure times are pure float arithmetic (the same
  repeated additions the unbatched loop performed); always batchable.
* ``jitter > 0`` with an **exclusive** RNG stream (nothing else draws
  from it during the run — the per-flow ``("legit", "udp", i)`` streams)
  — jitter factors are drawn in bulk, value ``i`` still maps to gap
  ``i``; numpy's bulk ``random(n)`` consumes the bit generator exactly
  like ``n`` scalar calls.
* ``jitter > 0`` on a **shared** stream (all zombies draw from the one
  ``"attack"`` stream, interleaved in event order) — departures cannot
  be precomputed per sender, but the scalar draw is served from a shared
  :class:`~repro.util.rng.UniformBuffer` that prefetches the stream and
  hands out values in the same global tick order, and the next tick is a
  handle-free ``schedule_anon`` entry (nothing ever cancels a tick;
  ``stop()`` is a flag the tick reads).

On-off bursts batch unconditionally: the burst's departure times depend
only on the on-duration drawn at burst start, and the off/on draws keep
their positions at the phase boundaries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.sim.packet import FlowKey, Packet
from repro.transport.flow import FlowAgent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import SeriesEvent, Simulator
    from repro.sim.node import Host
    from repro.util.rng import UniformBuffer

#: Departure times precomputed per series chunk.
_CHUNK = 256


class CbrSender(FlowAgent):
    """Constant-bit-rate sender.

    Emits ``packet_size``-byte packets every ``packet_size*8/rate_bps``
    seconds, optionally with multiplicative jitter.  ``spoof`` lets a
    zombie rewrite the claimed source address of each packet (the flow key
    stays fixed unless the spoofer varies it — MAFIC tracks flows by the
    4-tuple, so per-packet source rotation creates *new* flows).

    ``exclusive_rng=True`` declares that nothing else draws from ``rng``
    while this sender runs, unlocking fully precomputed (batched)
    departure times; ``jitter_buffer`` provides the shared-stream
    prefetch path instead (see module docstring).  Both default off, so a
    bare construction behaves exactly like the unbatched original.
    """

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        flow: FlowKey,
        rate_bps: float = 1e6,
        packet_size: int = 1000,
        is_attack: bool = False,
        jitter: float = 0.0,
        rng=None,
        spoof: Callable[[Packet], Packet] | None = None,
        keep_send_times: bool = False,
        exclusive_rng: bool = False,
        jitter_buffer: "UniformBuffer | None" = None,
    ) -> None:
        super().__init__(sim, host, flow, packet_size, is_attack=is_attack,
                         keep_send_times=keep_send_times)
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        self.rate_bps = float(rate_bps)
        self.jitter = float(jitter)
        self._rng = rng
        self._spoof = spoof
        self._seq = 0
        self._exclusive_rng = bool(exclusive_rng)
        self._jitter_buffer = jitter_buffer
        self._use_buffer = False
        self._series: "SeriesEvent | None" = None

    @property
    def interval(self) -> float:
        """Nominal inter-packet gap in seconds."""
        return self.packet_size * 8.0 / self.rate_bps

    def start(self, at: float | None = None) -> None:
        """Begin emitting at absolute time ``at`` (default now)."""
        if self.started:
            raise RuntimeError("sender already started")
        self.started = True
        when = self.sim.now if at is None else at
        if self.jitter == 0.0 or self._exclusive_rng:
            times = [when]
            times.extend(self._next_gaps(when, _CHUNK))
            self._series = self.sim.schedule_series(times, self._series_tick)
        else:
            # Jitter on a shared stream: one event per tick, the draw
            # served from the shared buffer when the scenario wired one.
            self._use_buffer = self._jitter_buffer is not None
            self.sim.schedule_at(when, self._tick)

    def handle_packet(self, packet: Packet, now: float) -> None:
        """Ignore all feedback (ACKs, probes): unresponsive by design."""
        self.stats.acks_received += 1

    # ------------------------------------------------------------ emission

    def _emit_one(self) -> None:
        seq = self._seq
        self._seq = seq + 1
        self._send_data(seq)

    def _next_gaps(self, last_time: float, count: int) -> list[float]:
        """The next ``count`` departure times after ``last_time``.

        Same arithmetic as the unbatched loop: each time is the previous
        one plus ``interval * (1 + jitter * (2u - 1))``, with the jitter
        factors drawn in bulk from this sender's (exclusive) stream.

        Vectorized, bit-exactly: the per-gap terms are elementwise
        float64 expressions identical to the scalar ones, and numpy's
        ``add.accumulate`` (cumsum) folds strictly left-to-right — the
        same ``t = t + gap`` rounding sequence as the loop it replaces
        (unlike ``add.reduce``, which sums pairwise).
        """
        interval = self.interval
        jitter = self.jitter
        steps = np.empty(count + 1)
        steps[0] = last_time
        if jitter == 0.0:
            steps[1:] = interval
        else:
            u = self._rng.random(count)
            steps[1:] = interval * (1.0 + jitter * (2.0 * u - 1.0))
        return np.add.accumulate(steps)[1:].tolist()

    def _series_tick(self) -> None:
        if self.stopped:
            self._series.stop()
            return
        self._emit_one()
        series = self._series
        if series.index + 1 >= len(series.times):
            series.extend(self._next_gaps(series.times[-1], _CHUNK))

    def _tick(self) -> None:
        if self.stopped:
            return
        self._emit_one()
        gap = self.packet_size * 8.0 / self.rate_bps  # interval, minus a call
        if self.jitter > 0:
            if self._use_buffer:
                u = self._jitter_buffer.next()
            else:
                u = float(self._rng.random())
            gap *= 1.0 + self.jitter * (2.0 * u - 1.0)
        # Nobody keeps a tick's handle: the same ``now + gap`` and the
        # same one seq draw as ``schedule(gap, ...)``, minus the Event.
        sim = self.sim
        sim.schedule_anon(sim.now + gap, self._tick)


class OnOffSender(CbrSender):
    """On-off CBR: bursts at ``rate_bps``, silent in between.

    Used for pulsing-attack ablations and as a bursty legitimate UDP
    workload.  By default ``mean_on``/``mean_off`` are the exponential
    means of the burst and silence durations; with
    ``deterministic=True`` they are the *exact* durations, giving a
    strictly periodic square-wave "pulse train" — the duty-cycled shape
    that probes verdict-timer defences (silent while judged, bursting
    between verdicts).
    """

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        flow: FlowKey,
        rate_bps: float = 1e6,
        packet_size: int = 1000,
        mean_on: float = 0.5,
        mean_off: float = 0.5,
        is_attack: bool = False,
        rng=None,
        spoof: Callable[[Packet], Packet] | None = None,
        keep_send_times: bool = False,
        deterministic: bool = False,
    ) -> None:
        if rng is None:
            raise ValueError("OnOffSender requires an rng")
        if mean_on <= 0 or mean_off < 0:
            raise ValueError("mean_on must be > 0 and mean_off >= 0")
        super().__init__(sim, host, flow, rate_bps, packet_size,
                         is_attack=is_attack, rng=rng, spoof=spoof,
                         keep_send_times=keep_send_times)
        self.mean_on = float(mean_on)
        self.mean_off = float(mean_off)
        self.deterministic = bool(deterministic)
        self._on = False
        self._phase_ends = 0.0

    def _draw_on(self) -> float:
        if self.deterministic:
            return self.mean_on
        return float(self._rng.exponential(self.mean_on))

    def _draw_off(self) -> float:
        if self.mean_off == 0:
            return 0.0
        if self.deterministic:
            return self.mean_off
        return float(self._rng.exponential(self.mean_off))

    def start(self, at: float | None = None) -> None:
        """Begin the first burst at ``at`` (default now)."""
        if self.started:
            raise RuntimeError("sender already started")
        self.started = True
        when = self.sim.now if at is None else at
        self.sim.schedule_at(when, self._start_burst)

    def _start_burst(self) -> None:
        if self.stopped:
            return
        self._on = True
        now = self.sim.now
        self._phase_ends = now + self._draw_on()
        # Batched burst: the first emission happens inline (where an
        # event-per-packet loop would make its first tick); subsequent
        # departures ride a series at one nominal interval apart — no
        # draws are moved, so this is bit-exact even on a shared stream.
        if now >= self._phase_ends:
            self._on = False
            self.sim.schedule(self._draw_off(), self._start_burst)
            return
        self._emit_one()
        self._series = self.sim.schedule_series(
            self._burst_chunk(now), self._burst_tick
        )

    def _burst_chunk(self, last_time: float) -> list[float]:
        """Departure times after ``last_time``, through the first instant
        at or past the phase end (where the off transition fires).

        Vectorized like :meth:`_next_gaps` (sequential ``add.accumulate``
        keeps the rounding of the scalar loop); the early exit becomes a
        ``searchsorted`` for the first time at or past the phase end.
        """
        interval = self.interval
        end = self._phase_ends
        steps = np.empty(_CHUNK + 1)
        steps[0] = last_time
        steps[1:] = interval
        times = np.add.accumulate(steps)[1:]
        cut = int(np.searchsorted(times, end, side="left")) + 1
        return times[:cut].tolist()

    def _burst_tick(self) -> None:
        if self.stopped:
            self._series.stop()
            return
        now = self.sim.now
        if now >= self._phase_ends:
            self._series.stop()
            self._on = False
            self.sim.schedule(self._draw_off(), self._start_burst)
            return
        self._emit_one()
        series = self._series
        if series.index + 1 >= len(series.times):
            series.extend(self._burst_chunk(series.times[-1]))
