"""Tests for repro.metrics.timeseries."""

import pytest

from repro.metrics.timeseries import StreamingBandwidthSeries


def series_of(events, start, end, bin_width):
    """The finished series of (time, size, is_attack) ``events``."""
    streaming = StreamingBandwidthSeries(start, end, bin_width)
    streaming.observe_many(events)
    return streaming.finish()


class TestBandwidthSeries:
    def test_bucketing(self):
        series = series_of(
            [(0.1, 1000, False), (0.9, 1000, True)],
            start=0.0, end=1.0, bin_width=0.5,
        )
        assert len(series) == 2
        # 1000 B in 0.5 s = 16 kbps.
        assert series.total_kbps == [pytest.approx(16.0), pytest.approx(16.0)]
        assert series.legit_kbps[0] == pytest.approx(16.0)
        assert series.attack_kbps[1] == pytest.approx(16.0)

    def test_bin_centres(self):
        series = series_of([], 0.0, 1.0, bin_width=0.25)
        assert series.times == [0.125, 0.375, 0.625, 0.875]

    def test_events_outside_range_ignored(self):
        series = series_of(
            [(-0.5, 1000, False), (1.5, 1000, False)], 0.0, 1.0, 0.5
        )
        assert sum(series.total_kbps) == 0.0

    def test_event_on_end_boundary_excluded(self):
        series = series_of([(1.0, 1000, False)], 0.0, 1.0, 0.5)
        assert sum(series.total_kbps) == 0.0

    def test_peak(self):
        series = series_of(
            [(0.1, 1000, False), (0.6, 2000, False)], 0.0, 1.0, 0.5
        )
        assert series.peak_total_kbps() == pytest.approx(32.0)

    def test_mean_over_interval(self):
        series = series_of(
            [(0.1, 1000, False), (0.6, 3000, False)], 0.0, 1.0, 0.5
        )
        assert series.mean_total_kbps(0.0, 1.0) == pytest.approx((16 + 48) / 2)

    def test_mean_empty_interval(self):
        series = series_of([], 0.0, 1.0, 0.5)
        assert series.mean_total_kbps(5.0, 6.0) == 0.0

    def test_attack_plus_legit_equals_total(self):
        events = [(i * 0.01, 500, i % 3 == 0) for i in range(100)]
        series = series_of(events, 0.0, 1.0, 0.1)
        for total, attack, legit in zip(
            series.total_kbps, series.attack_kbps, series.legit_kbps
        ):
            assert total == pytest.approx(attack + legit)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StreamingBandwidthSeries(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            StreamingBandwidthSeries(0.0, 1.0, 0.0)
