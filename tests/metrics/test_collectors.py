"""Tests for repro.metrics.collectors."""

import pytest

from repro.core.labels import FlowLabel
from repro.metrics.collectors import (
    FOLD_EVERY,
    DefenseMetricsCollector,
    FlowTruth,
    StreamingVictimCollector,
)
from repro.sim.packet import FlowKey, Packet


def pkt(flow=None, is_attack=False, size=1000):
    p = Packet(flow=flow if flow is not None else FlowKey(1, 2, 3, 4), size=size)
    p.is_attack = is_attack
    return p


class TestDefenseMetricsCollector:
    def test_classification_by_is_attack_flag(self):
        dc = DefenseMetricsCollector()
        dc.on_defense_drop(pkt(is_attack=True), "pdt", 1.0)
        assert dc.of(FlowTruth.ATTACK).dropped == 1

    def test_classification_by_flow_truth_map(self):
        flow = FlowKey(1, 2, 3, 4)
        dc = DefenseMetricsCollector({flow.hashed(): FlowTruth.TCP_LEGIT})
        dc.on_defense_pass(pkt(flow), 1.0)
        assert dc.of(FlowTruth.TCP_LEGIT).passed == 1

    def test_unknown_flows_bucketed(self):
        dc = DefenseMetricsCollector()
        dc.on_defense_pass(pkt(), 1.0)
        assert dc.of(FlowTruth.UNKNOWN).examined == 1

    def test_drop_reason_breakdown(self):
        flow = FlowKey(1, 2, 3, 4)
        dc = DefenseMetricsCollector({flow.hashed(): FlowTruth.TCP_LEGIT})
        dc.on_defense_drop(pkt(flow), "probe", 1.0)
        dc.on_defense_drop(pkt(flow), "pdt", 1.1)
        dc.on_defense_drop(pkt(flow), "illegal", 1.2)
        dc.on_defense_drop(pkt(flow), "policy", 1.3)
        counts = dc.of(FlowTruth.TCP_LEGIT)
        assert counts.dropped_probe == 1
        assert counts.dropped_pdt == 1
        assert counts.dropped_illegal == 1
        assert counts.dropped_policy == 1
        assert counts.dropped == 4
        assert counts.examined == 4

    def test_totals(self):
        dc = DefenseMetricsCollector()
        dc.on_defense_drop(pkt(is_attack=True), "pdt", 1.0)
        dc.on_defense_pass(pkt(), 1.0)
        assert dc.total_examined == 2
        assert dc.total_dropped == 1

    def test_first_drop_time(self):
        dc = DefenseMetricsCollector()
        assert dc.first_drop_time is None
        dc.on_defense_drop(pkt(), "probe", 2.5)
        dc.on_defense_drop(pkt(), "probe", 3.5)
        assert dc.first_drop_time == 2.5

    def test_verdict_confusion(self):
        label = FlowLabel(FlowKey(1, 2, 3, 4).hashed())
        dc = DefenseMetricsCollector({int(label): FlowTruth.ATTACK})
        dc.on_verdict(label, "cut", 1.0)
        dc.on_verdict(FlowLabel(99), "nice", 1.1)
        confusion = dc.verdict_confusion()
        assert confusion[(FlowTruth.ATTACK, "cut")] == 1
        assert confusion[(FlowTruth.UNKNOWN, "nice")] == 1


class TestVictimMetricsCollector:
    """The victim collector (``StreamingVictimCollector``, the only one);
    its β windows are half-open like the arrival-list queries it replaced
    (``tests/metrics/victim_reference.py``)."""

    def test_arrival_accounting(self):
        vc = StreamingVictimCollector(duration=5.0, series_bin_width=1.0)
        vc.on_packet(pkt(is_attack=True), 1.0)
        vc.on_packet(pkt(), 2.0)
        series = vc.series.finish()
        assert series.attack_kbps == [0.0, 8.0, 0.0, 0.0, 0.0]
        assert series.legit_kbps == [0.0, 0.0, 8.0, 0.0, 0.0]
        assert vc.series.observed == 2

    def test_arrivals_in_window(self):
        # The after window is [t0 + w/4, t0 + 5w/4) = [1.25, 2.25).
        vc = StreamingVictimCollector(
            duration=5.0, reduction_window=1.0, pre_window=1.0
        )
        vc.on_packet(pkt(size=100), 0.5)
        vc.mark_defense_activation(1.0)
        for t in (1.1, 1.25, 2.0, 2.25, 3.0):
            vc.on_packet(pkt(size=100), t)
        _, after = vc.beta_rates()
        assert after == 2 * 100 * 8.0  # 1.25 and 2.0 only, over 1 s

    def test_window_half_open(self):
        # The before window is [t0 - pre_window, t0) = [1.0, 2.0).
        vc = StreamingVictimCollector(duration=5.0, pre_window=1.0)
        for t in (0.5, 1.0, 2.0):
            vc.on_packet(pkt(size=1000), t)
        vc.mark_defense_activation(2.0)
        before, _ = vc.beta_rates()
        assert before == 1000 * 8.0

    def test_rate_bps(self):
        vc = StreamingVictimCollector(duration=5.0, pre_window=1.0)
        vc.on_packet(pkt(size=1000), 0.5)
        vc.on_packet(pkt(size=1000), 0.9)
        vc.mark_defense_activation(1.0)
        assert vc.beta_rates()[0] == pytest.approx(16_000)

    def test_rate_rejects_empty_window(self):
        with pytest.raises(ValueError, match="pre_window"):
            StreamingVictimCollector(duration=5.0, pre_window=0.0)

    def test_activation_marked_once(self):
        vc = StreamingVictimCollector(duration=5.0)
        vc.mark_defense_activation(1.5)
        vc.mark_defense_activation(2.5)
        assert vc.defense_activated_at == 1.5


class TestArrivalCost:
    def test_an_arrival_is_one_frame_and_a_fold_two_per_fold_every(self):
        """Before activation an arrival costs what appending it to an
        arrival list did: ``on_packet``, no per-arrival series call.
        Every ``FOLD_EVERY`` arrivals, ``_fold`` and ``observe_many``.
        (The idle bus's guard is the bus layer's cost, not counted.)"""
        import gc
        import sys
        from collections import Counter

        calls = Counter()

        def profiler(frame, event, arg):
            code = frame.f_code
            if event == "call" and "/repro/metrics/" in code.co_filename:
                calls[code.co_name] += 1

        vc = StreamingVictimCollector(duration=10.0, pre_window=0.2)
        packet = pkt()
        n = 8 * FOLD_EVERY
        collecting = gc.isenabled()
        gc.disable()  # a gc callback would show up as frames
        sys.setprofile(profiler)
        try:
            for i in range(n):
                vc.on_packet(packet, i * 1e-3)
        finally:
            sys.setprofile(None)
            if collecting:
                gc.enable()
        assert calls["on_packet"] == n
        assert calls["_fold"] == n // FOLD_EVERY
        assert sum(calls.values()) == n + 2 * (n // FOLD_EVERY)


class TestStreamingMatchesTheReference:
    """Against the arrival-hoarding fold it replaced, on long random
    streams: folded in pieces and cut down to the before window many
    times over, β and the series still come out float-identical."""

    @pytest.mark.parametrize("at_fold", [False, True], ids=["anytime", "at-fold"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_beta_and_series_are_float_identical(self, seed, at_fold):
        """``at_fold`` activates at the arrival whose fold just cut the
        list: the before window then reaches back exactly to the cut."""
        import random

        from tests.metrics.victim_reference import VictimMetricsCollector

        rng = random.Random(seed)
        duration, activation = 10.0, rng.uniform(0.05, 9.0)
        streaming = StreamingVictimCollector(
            duration=duration, reduction_window=0.3, pre_window=0.2
        )
        reference = VictimMetricsCollector(
            duration=duration, reduction_window=0.3, pre_window=0.2
        )
        times = sorted(rng.uniform(0.0, duration) for _ in range(20_000))
        times.insert(len(times) // 3, times[len(times) // 3])  # a tie
        most = 0
        for t in times:
            if streaming.defense_activated_at is None and not at_fold and (
                t >= activation
            ):
                for vc in (streaming, reference):
                    vc.mark_defense_activation(activation)
            packet = pkt(is_attack=rng.random() < 0.5,
                         size=rng.choice((40, 576, 1500)))
            pending = len(streaming._pending)
            for vc in (streaming, reference):
                vc.on_packet(packet, t)
            most = max(most, pending + 1)
            if (
                at_fold and streaming.defense_activated_at is None
                and t >= activation and len(streaming._pending) <= pending
            ):
                for vc in (streaming, reference):
                    vc.mark_defense_activation(t)
        assert streaming.defense_activated_at is not None
        assert streaming.beta_rates() == reference.beta_rates()
        assert streaming.series.finish() == reference.series.finish()
        # ~400 arrivals fall in one pre_window; the pending list holds
        # those and at most one fold's worth more.
        assert most <= 400 + FOLD_EVERY + 100
