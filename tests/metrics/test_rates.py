"""Tests for repro.metrics.rates."""

import pytest

from repro.metrics.collectors import (
    DefenseMetricsCollector,
    FlowTruth,
    StreamingVictimCollector,
)
from repro.metrics.rates import summarize
from repro.sim.packet import FlowKey, Packet

ATTACK_FLOW = FlowKey(1, 9, 1, 80)
NICE_FLOW = FlowKey(2, 9, 2, 80)


def _collector():
    return DefenseMetricsCollector(
        {
            ATTACK_FLOW.hashed(): FlowTruth.ATTACK,
            NICE_FLOW.hashed(): FlowTruth.TCP_LEGIT,
        }
    )


def attack_pkt():
    p = Packet(flow=ATTACK_FLOW)
    p.is_attack = True
    return p


def nice_pkt():
    return Packet(flow=NICE_FLOW)


class TestAccuracyAndFalseNegative:
    def test_accuracy_is_dropped_over_examined(self):
        dc = _collector()
        for _ in range(9):
            dc.on_defense_drop(attack_pkt(), "pdt", 1.0)
        dc.on_defense_pass(attack_pkt(), 1.0)
        s = summarize(dc)
        assert s.accuracy == pytest.approx(0.9)
        assert s.false_negative_rate == pytest.approx(0.1)

    def test_empty_collector_gives_zeros(self):
        s = summarize(_collector())
        assert s.accuracy == 0.0
        assert s.false_negative_rate == 0.0
        assert s.legit_drop_rate == 0.0


class TestFalsePositiveAndLr:
    def test_theta_p_counts_only_pdt_drops_of_nice_flows(self):
        dc = _collector()
        dc.on_defense_drop(nice_pkt(), "probe", 1.0)  # probing cost -> Lr only
        dc.on_defense_drop(nice_pkt(), "pdt", 1.1)  # misclassification -> theta_p
        for _ in range(8):
            dc.on_defense_pass(nice_pkt(), 1.2)
        s = summarize(dc)
        assert s.false_positive_rate == pytest.approx(1 / 10)
        assert s.legit_drop_rate == pytest.approx(2 / 10)

    def test_theta_p_denominator_is_total_examined(self):
        dc = _collector()
        dc.on_defense_drop(nice_pkt(), "pdt", 1.0)
        for _ in range(9):
            dc.on_defense_drop(attack_pkt(), "pdt", 1.0)
        s = summarize(dc)
        assert s.false_positive_rate == pytest.approx(1 / 10)

    def test_lr_denominator_is_wellbehaved_only(self):
        dc = _collector()
        dc.on_defense_drop(nice_pkt(), "probe", 1.0)
        dc.on_defense_pass(nice_pkt(), 1.0)
        for _ in range(100):
            dc.on_defense_drop(attack_pkt(), "pdt", 1.0)
        s = summarize(dc)
        assert s.legit_drop_rate == pytest.approx(0.5)


class TestTrafficReduction:
    def _victim_with_cut(self, before_rate=100, after_rate=10):
        vc = StreamingVictimCollector(
            duration=5.0, reduction_window=0.4, pre_window=0.4
        )
        # Arrivals at constant spacing before t=2 and sparse after.
        t = 1.0
        while t < 2.0:
            vc.on_packet(Packet(flow=ATTACK_FLOW), t)
            t += 1.0 / before_rate
        vc.mark_defense_activation(2.0)
        t = 2.0
        while t < 4.0:
            vc.on_packet(Packet(flow=ATTACK_FLOW), t)
            t += 1.0 / after_rate
        return vc

    def test_beta_measures_rate_collapse(self):
        vc = self._victim_with_cut()
        s = summarize(_collector(), vc)
        assert s.traffic_reduction == pytest.approx(0.9, abs=0.05)
        assert s.victim_rate_before_bps > 0

    def test_beta_zero_without_activation(self):
        vc = StreamingVictimCollector(duration=5.0)
        vc.on_packet(Packet(flow=ATTACK_FLOW), 1.0)
        s = summarize(_collector(), vc)
        assert s.traffic_reduction == 0.0

    def test_beta_clamped_non_negative(self):
        vc = StreamingVictimCollector(
            duration=5.0, reduction_window=0.2, pre_window=1.0
        )
        # Traffic grows after activation.
        for i in range(10):
            vc.on_packet(Packet(flow=ATTACK_FLOW), 1.0 + i * 0.01)
        vc.mark_defense_activation(2.0)
        for i in range(100):
            vc.on_packet(Packet(flow=ATTACK_FLOW), 2.1 + i * 0.001)
        s = summarize(_collector(), vc)
        assert s.traffic_reduction == 0.0


class TestSummaryShape:
    def test_as_percent(self):
        dc = _collector()
        dc.on_defense_drop(attack_pkt(), "pdt", 1.0)
        pct = summarize(dc).as_percent()
        assert pct["alpha"] == 100.0
        assert set(pct) == {"alpha", "beta", "theta_p", "theta_n", "Lr"}

    def test_supporting_counts(self):
        dc = _collector()
        dc.on_defense_drop(attack_pkt(), "pdt", 1.0)
        dc.on_defense_pass(nice_pkt(), 1.0)
        s = summarize(dc)
        assert s.attack_examined == 1
        assert s.attack_dropped == 1
        assert s.wellbehaved_examined == 1
        assert s.total_examined == 2
