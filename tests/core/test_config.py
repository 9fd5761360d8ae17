"""Tests for repro.core.config (MaficConfig)."""

import pytest

from repro.core.config import MaficConfig


class TestDefaults:
    def test_table_ii_drop_probability(self):
        assert MaficConfig().drop_probability == 0.90

    def test_probe_timer_is_two_rtt(self):
        assert MaficConfig().probe_timer_rtt_multiplier == 2.0


class TestProbeWindow:
    def test_uses_measured_rtt(self):
        cfg = MaficConfig(probe_timer_rtt_multiplier=2.0)
        assert cfg.probe_window(0.1) == pytest.approx(0.2)

    def test_falls_back_to_default(self):
        cfg = MaficConfig(default_rtt=0.15)
        assert cfg.probe_window(None) == pytest.approx(0.30)

    def test_zero_rtt_falls_back(self):
        cfg = MaficConfig(default_rtt=0.15)
        assert cfg.probe_window(0.0) == pytest.approx(0.30)

    def test_custom_multiplier(self):
        cfg = MaficConfig(probe_timer_rtt_multiplier=4.0)
        assert cfg.probe_window(0.1) == pytest.approx(0.4)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_probability": 1.5},
            {"drop_probability": -0.1},
            {"probe_timer_rtt_multiplier": 0},
            {"default_rtt": 0},
            {"response_ratio": 2.0},
            {"rate_window": 0},
            {"min_packets_for_verdict": 0},
            {"dup_acks_per_probe": -1},
            {"probe_ack_size": 0},
            {"renotice_interval": -1},
            {"rate_window": float("inf")},
            {"rate_window": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MaficConfig(**kwargs)

    @pytest.mark.parametrize(
        "name", ["default_rtt", "probe_timer_rtt_multiplier", "rate_window"]
    )
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_rejects_a_non_finite_timer_field_by_name(self, name, value):
        # An infinite RTT or multiplier made every probe window inf.
        with pytest.raises(ValueError, match=name):
            MaficConfig(**{name: value})

    def test_accepts_boundary_probability(self):
        assert MaficConfig(drop_probability=1.0).drop_probability == 1.0
        assert MaficConfig(drop_probability=0.0).drop_probability == 0.0
