"""Tests for repro.util.stats."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import Ewma, RunningStats, WindowedCount, WindowedRate

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestEwma:
    def test_first_sample_is_value(self):
        e = Ewma(0.25)
        assert e.update(10.0) == 10.0

    def test_none_before_samples(self):
        assert Ewma().value is None

    def test_alpha_one_tracks_last(self):
        e = Ewma(1.0)
        e.update(5)
        assert e.update(9) == 9.0

    def test_smoothing_moves_toward_sample(self):
        e = Ewma(0.5)
        e.update(0)
        assert e.update(10) == 5.0

    def test_reset(self):
        e = Ewma()
        e.update(3)
        e.reset()
        assert e.value is None

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ValueError):
            Ewma(alpha)

    @given(st.lists(floats, min_size=1, max_size=50))
    def test_stays_within_sample_range(self, samples):
        e = Ewma(0.3)
        for s in samples:
            e.update(s)
        assert min(samples) - 1e-6 <= e.value <= max(samples) + 1e-6


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_single_sample(self):
        s = RunningStats()
        s.update(4.0)
        assert s.mean == 4.0
        assert s.variance == 0.0
        assert s.minimum == 4.0
        assert s.maximum == 4.0

    def test_known_values(self):
        s = RunningStats()
        for x in [2, 4, 4, 4, 5, 5, 7, 9]:
            s.update(x)
        assert s.mean == pytest.approx(5.0)
        assert s.stddev == pytest.approx(2.0)

    @given(st.lists(floats, min_size=2, max_size=100))
    def test_matches_naive_computation(self, samples):
        s = RunningStats()
        for x in samples:
            s.update(x)
        mean = sum(samples) / len(samples)
        var = sum((x - mean) ** 2 for x in samples) / len(samples)
        assert s.mean == pytest.approx(mean, rel=1e-6, abs=1e-6)
        assert s.variance == pytest.approx(var, rel=1e-6, abs=1e-3)


class TestWindowedRate:
    def test_rate_counts_recent_events(self):
        w = WindowedRate(1.0)
        w.record(0.0)
        w.record(0.5)
        assert w.rate(0.5) == pytest.approx(2.0)

    def test_events_expire(self):
        w = WindowedRate(1.0)
        w.record(0.0)
        assert w.rate(1.5) == 0.0

    def test_boundary_is_exclusive(self):
        w = WindowedRate(1.0)
        w.record(0.0)
        # At now=1.0 the event at t=0 is exactly window-old: expired.
        assert w.rate(1.0) == 0.0

    def test_weighted_events(self):
        w = WindowedRate(2.0)
        w.record(0.0, weight=1000.0)
        assert w.rate(0.1) == pytest.approx(500.0)

    def test_count(self):
        w = WindowedRate(1.0)
        for t in (0.0, 0.2, 0.4):
            w.record(t)
        assert w.count(0.5) == 3
        assert w.count(1.3) == 1

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            WindowedRate(0.0)

    @pytest.mark.parametrize("window", [0.0, -1.0, float("inf"), float("nan")])
    @pytest.mark.parametrize("cls", [WindowedRate, WindowedCount])
    def test_non_positive_or_non_finite_window_rejected(self, cls, window):
        # Non-finite windows used to slip through: NaN read every rate
        # as nan and an infinite window every rate as 0.0.
        with pytest.raises(ValueError):
            cls(window)

    @given(st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=50))
    def test_rate_never_negative(self, times):
        w = WindowedRate(0.5)
        for t in sorted(times):
            w.record(t)
        assert w.rate(max(times)) >= 0.0

    def test_weight_sum_resets_when_empty(self):
        w = WindowedRate(0.1)
        w.record(0.0, weight=5.0)
        w.record(10.0, weight=1.0)
        assert w.rate(10.0) == pytest.approx(10.0)  # only the new event


class TestWindowedRateWatermarkPruning:
    """The record() hot path prunes one batch per window behind a
    watermark; reads must stay exact and memory bounded regardless."""

    @staticmethod
    def naive_rate(samples, now, window):
        return sum(w for t, w in samples if now - window < t <= now) / window

    @staticmethod
    def naive_count(samples, now, window):
        return sum(1 for t, _ in samples if now - window < t <= now)

    def test_interleaved_reads_match_naive_reference(self):
        """record/rate/count interleaved across many window boundaries
        always agree with a prune-free reference implementation."""
        window = 1.0
        w = WindowedRate(window)
        samples = []
        t = 0.0
        rng = np.random.default_rng(42)
        for step in range(400):
            t += float(rng.uniform(0.0, 0.4))  # frequently crosses windows
            weight = float(rng.uniform(0.5, 2.0))
            w.record(t, weight)
            samples.append((t, weight))
            if step % 3 == 0:
                assert w.rate(t) == pytest.approx(
                    self.naive_rate(samples, t, window)
                )
            if step % 5 == 0:
                assert w.count(t) == self.naive_count(samples, t, window)

    def test_reads_exact_immediately_after_boundary_crossing(self):
        """A read right after the first sample of a new window must not
        see stale entries the watermark hasn't flushed yet."""
        w = WindowedRate(1.0)
        for t in (0.0, 0.3, 0.6, 0.9):
            w.record(t)
        # 2.05 is far beyond every sample's expiry but record() only
        # prunes when now >= watermark; rate() must prune fully anyway.
        w.record(2.05)
        assert w.count(2.05) == 1
        assert w.rate(2.05) == pytest.approx(1.0)

    def test_memory_bounded_under_record_only_workload(self):
        """Without a single rate()/count() call, the deque stays at
        ~2 windows of samples (the watermark batch size), not the full
        history."""
        window = 1.0
        rate_hz = 1000  # samples per second
        w = WindowedRate(window)
        peak = 0
        for i in range(20 * rate_hz):  # 20 seconds of traffic
            w.record(i / rate_hz)
            peak = max(peak, len(w._times))
        # 2 windows of samples plus slack for the batch granularity.
        assert peak <= 2 * rate_hz + rate_hz // 10
        # And the bound is what keeps reads exact: final rate is 1 window.
        now = (20 * rate_hz - 1) / rate_hz
        assert w.count(now) == rate_hz

    def test_watermark_advances_per_batch_not_per_sample(self):
        """Expiry work happens once per window, not on every record."""
        w = WindowedRate(1.0)
        w.record(0.0)
        watermark = w._next_expiry
        for t in (0.1, 0.5, 0.9, 1.4, 1.9):
            w.record(t)
            assert w._next_expiry == watermark  # no prune yet
        w.record(2.0)  # >= watermark: one batch expires
        assert w._next_expiry > watermark
        assert w._times[0] == pytest.approx(1.4)


class TestWindowedCountMatchesAPopleftModel:
    """WindowedCount cuts its expired times with one bisect; the inline
    model pops them one at a time from a deque, as the class once did.
    Times sit on a 1/8 grid, so arrivals tie with each other and with
    the cutoff ``now - window`` exactly."""

    OPS = st.sampled_from(["record", "rate", "count", "idle"])

    @given(st.lists(st.tuples(st.integers(0, 6), OPS), max_size=80))
    def test_every_read_and_the_kept_times_agree(self, steps):
        window = 0.5
        monitor = WindowedCount(window)
        times, next_expiry = deque(), -math.inf

        def expire(now):
            nonlocal next_expiry
            while times and times[0] <= now - window:
                times.popleft()
            next_expiry = (times[0] if times else now) + 2.0 * window

        now = 0.0
        for eighths, op in steps:
            now += eighths / 8
            if op == "record":
                monitor.record(now)
                times.append(now)
                if now >= next_expiry:
                    expire(now)
            elif op == "idle":
                assert monitor.idle(now) == (not times or times[-1] <= now - window)
            else:
                expire(now)
                want = len(times) / window if op == "rate" else len(times)
                assert getattr(monitor, op)(now) == want
            assert monitor._times == list(times)
            assert monitor._next_expiry == next_expiry
