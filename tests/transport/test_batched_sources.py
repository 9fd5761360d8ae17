"""Batched tick generation must be bit-identical to the unbatched loop.

Each test runs the same sender twice — as shipped (batched) and as the
event-per-packet loop it replaced, kept here as the reference — and
compares every departure (time, seq, claimed source) exactly.  The
batched paths differ per configuration (precomputed series for
exclusive/jitter-free streams, shared prefetch buffer for the zombies'
common stream), so each is pinned separately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.packet import FlowKey
from repro.transport.udp import CbrSender, OnOffSender
from repro.util.rng import UniformBuffer


class UnbatchedCbr(CbrSender):
    """The reference: one self-rescheduling event and one scalar jitter
    draw per packet (``CbrSender._tick`` with no buffer behind it)."""

    def start(self, at=None):
        if self.started:
            raise RuntimeError("sender already started")
        self.started = True
        self.sim.schedule_at(self.sim.now if at is None else at, self._tick)


class UnbatchedOnOff(OnOffSender):
    """The reference burst: every departure its own ``_tick`` event."""

    def _start_burst(self):
        if self.stopped:
            return
        self._on = True
        self._phase_ends = self.sim.now + self._draw_on()
        self._tick()

    def _tick(self):
        if self.stopped or not self._on:
            return
        if self.sim.now >= self._phase_ends:
            self._on = False
            self.sim.schedule(self._draw_off(), self._start_burst)
            return
        self._emit_one()
        self.sim.schedule(self.interval, self._tick)


class FakeHost:
    """Captures (time, seq, src_ip) of every packet offered to it."""

    def __init__(self, sim):
        self.sim = sim
        self.sent: list[tuple[float, int, int]] = []

    def send(self, packet) -> bool:
        self.sent.append((self.sim.now, packet.seq, packet.flow.src_ip))
        return True


FLOW = FlowKey(0x0A000001, 0x0A010001, 1234, 9)


def _run_cbr(batched: bool, *, jitter: float, exclusive: bool,
             shared_buffer: bool = False, until: float = 2.0,
             stop_at: float | None = None, n_senders: int = 1):
    sim = Simulator()
    host = FakeHost(sim)
    senders = []
    rng = np.random.default_rng(99)
    # ONE buffer over the shared stream — every consumer must go
    # through it, exactly as the attack scenario wires its zombies.
    buffer = (
        UniformBuffer(rng)
        if (batched and shared_buffer and jitter > 0)
        else None
    )
    for i in range(n_senders):
        sender_rng = np.random.default_rng(99 + i) if exclusive else rng
        sender = (CbrSender if batched else UnbatchedCbr)(
            sim, host, FlowKey(i + 1, 0x0A010001, 1000 + i, 9),
            rate_bps=2e6, packet_size=500, jitter=jitter,
            rng=sender_rng if jitter > 0 else None,
            exclusive_rng=exclusive,
            jitter_buffer=buffer,
        )
        sender.start(at=0.01 * i)
        senders.append(sender)
    if stop_at is not None:
        sim.schedule_at(stop_at, senders[0].stop)
    sim.run(until=until)
    return host.sent, sim.events_executed


class TestCbrBatching:
    def test_jitter_free_series_identical(self):
        assert _run_cbr(True, jitter=0.0, exclusive=False) == \
            _run_cbr(False, jitter=0.0, exclusive=False)

    def test_exclusive_stream_bulk_jitter_identical(self):
        assert _run_cbr(True, jitter=0.1, exclusive=True) == \
            _run_cbr(False, jitter=0.1, exclusive=True)

    def test_shared_stream_buffered_jitter_identical(self):
        # Three senders drawing interleaved jitter from one stream.
        batched = _run_cbr(True, jitter=0.1, exclusive=False,
                           shared_buffer=True, n_senders=3)
        plain = _run_cbr(False, jitter=0.1, exclusive=False, n_senders=3)
        assert batched == plain

    def test_stop_mid_run_identical(self):
        assert _run_cbr(True, jitter=0.0, exclusive=False, stop_at=0.9) == \
            _run_cbr(False, jitter=0.0, exclusive=False, stop_at=0.9)

    def test_series_spans_many_chunks(self):
        # > 256 departures forces at least one horizon-chunk extension.
        batched, _ = _run_cbr(True, jitter=0.05, exclusive=True, until=1.0)
        plain, _ = _run_cbr(False, jitter=0.05, exclusive=True, until=1.0)
        assert len(batched) > 256
        assert batched == plain


def _run_onoff(batched: bool, *, deterministic: bool, until: float = 3.0,
               mean_off: float = 0.25):
    sim = Simulator()
    host = FakeHost(sim)
    sender = (OnOffSender if batched else UnbatchedOnOff)(
        sim, host, FLOW, rate_bps=1e6, packet_size=500,
        mean_on=0.3, mean_off=mean_off,
        rng=np.random.default_rng(5),
        deterministic=deterministic,
    )
    sender.start(at=0.05)
    sim.run(until=until)
    return host.sent, sim.events_executed


class TestOnOffBatching:
    @pytest.mark.parametrize("deterministic", [False, True])
    def test_bursts_identical(self, deterministic):
        assert _run_onoff(True, deterministic=deterministic) == \
            _run_onoff(False, deterministic=deterministic)

    def test_zero_off_phase_identical(self):
        assert _run_onoff(True, deterministic=True, mean_off=0.0) == \
            _run_onoff(False, deterministic=True, mean_off=0.0)


class TestUniformBuffer:
    def test_matches_scalar_draws(self):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        buffer = UniformBuffer(a, chunk=7)  # uneven chunk vs draw count
        assert [buffer.next() for _ in range(100)] == \
            [float(b.random()) for _ in range(100)]

    def test_lazy_first_fill(self):
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        buffer = UniformBuffer(a)
        pre = float(a.random())  # drawn before the buffer ever fills
        assert pre == float(b.random())
        assert buffer.next() == float(b.random())

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            UniformBuffer(np.random.default_rng(0), chunk=0)
