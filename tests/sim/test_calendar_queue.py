"""Scheduler order, series events, and the non-finite-time regression
(NaN/inf corrupting queue order), on both engine cores.

The file is named for the calendar-queue backend it was written to hold
against the heap.  That backend is gone (the heap won — README,
"Scheduler backends"); the order, series and validation tests it came
with test the one engine there is, so they stay, under the ids they
always had: ``heap`` is the public :class:`Simulator` (the compiled core
when built), ``calendar`` the pure-Python reference (see ``conftest.py``).
"""

from __future__ import annotations

import math
import random

import pytest

from tests.sim.conftest import ENGINE_CORES


def _run_trace(core: str, script) -> list:
    """Execute ``script(sim, log)`` and return the logged execution."""
    sim = ENGINE_CORES[core]()
    log: list = []
    script(sim, log)
    sim.run()
    return log


class TestNonFiniteTimes:
    """Regression: ``NaN < now`` is False, so a NaN time used to slip
    past the past-time guard and corrupt heap ordering; +inf parked an
    unreachable event forever."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_schedule_at_rejects_non_finite(self, sim, bad):
        with pytest.raises(ValueError, match="finite|past"):
            sim.schedule_at(bad, lambda: None)

    def test_schedule_rejects_nan_delay(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(math.nan, lambda: None)

    def test_schedule_rejects_inf_delay(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(math.inf, lambda: None)

    def test_queue_intact_after_rejection(self, sim):
        ran = []
        sim.schedule(1.0, ran.append, "ok")
        with pytest.raises(ValueError):
            sim.schedule_at(math.nan, ran.append, "bad")
        sim.run()
        assert ran == ["ok"]


class TestBackendParity:
    """Both cores must execute the exact same sequence — the one a sort
    by ``(time, priority, scheduling order)`` gives."""

    def test_randomized_schedule_identical_order(self):
        def script(sim, log):
            rng = random.Random(20260728)
            events = []
            for i in range(2000):
                t = round(rng.uniform(0.0, 10.0), 3)  # forces time ties
                prio = rng.choice([-1, 0, 1])
                events.append((t, prio, i))
            for t, prio, i in events:
                sim.schedule_at(t, log.append, (t, prio, i), priority=prio)

        order = _run_trace("public", script)
        assert order == _run_trace("reference", script)
        assert order == sorted(order)  # i is the scheduling order

    def test_same_time_priority_and_seq_ties(self):
        def script(sim, log):
            for i in range(50):
                sim.schedule_at(1.0, log.append, ("late", i), priority=1)
                sim.schedule_at(1.0, log.append, ("early", i), priority=-1)
                sim.schedule_at(1.0, log.append, ("mid", i))

        public_order = _run_trace("public", script)
        assert _run_trace("reference", script) == public_order
        # Priority buckets, each FIFO by scheduling order.
        labels = [tag for tag, _ in public_order]
        assert labels == ["early"] * 50 + ["mid"] * 50 + ["late"] * 50

    def test_cancellation_interleaved_with_execution(self):
        def script(sim, log):
            rng = random.Random(7)
            handles = []
            for i in range(500):
                handles.append(sim.schedule_at(rng.uniform(0, 5), log.append, i))
            for h in rng.sample(handles, 250):
                h.cancel()

        assert _run_trace("public", script) == _run_trace("reference", script)


class TestSeriesEvents:
    def test_fires_at_each_time(self, sim):
        fired = []
        sim.schedule_series([1.0, 2.0, 3.5], lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0, 2.0, 3.5]
        assert sim.events_executed == 3

    def test_counts_as_one_pending_event(self, sim):
        series = sim.schedule_series([1.0, 2.0, 3.0], lambda: None)
        assert sim.pending() == 1
        sim.run(until=1.5)
        assert sim.pending() == 1
        sim.run()
        assert sim.pending() == 0
        assert series.cancelled

    def test_extend_from_callback(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            if series.index + 1 >= len(series.times) and len(fired) < 5:
                series.extend([sim.now + 1.0])

        series = sim.schedule_series([1.0], tick)
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_stop_from_callback(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) == 2:
                series.stop()

        series = sim.schedule_series([1.0, 2.0, 3.0, 4.0], tick)
        sim.run()
        assert fired == [1.0, 2.0]
        assert series.cancelled
        assert sim.pending() == 0

    def test_stop_while_queued_cancels_next_firing(self, sim):
        fired = []
        series = sim.schedule_series([1.0, 2.0, 3.0], lambda: fired.append(sim.now))
        sim.run(until=1.5)
        series.stop()  # external quiesce between firings
        sim.run()
        assert fired == [1.0]
        assert sim.pending() == 0

    def test_cancel_while_queued(self, sim):
        fired = []
        series = sim.schedule_series([1.0, 2.0], lambda: fired.append(sim.now))
        series.cancel()
        assert sim.pending() == 0
        sim.run()
        assert fired == []

    def test_cancel_from_own_callback_ends_series(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            series.cancel()

        series = sim.schedule_series([1.0, 2.0, 3.0], tick)
        sim.run()
        assert fired == [1.0]
        assert sim.pending() == 0

    def test_seq_interleaving_matches_self_rescheduling(self):
        """A series and a handler that re-schedules itself as its last
        statement must interleave identically with same-time events."""

        def with_series(sim, log):
            sim.schedule_series([1.0, 2.0, 3.0], lambda: (
                log.append(("tick", sim.now)),
                sim.schedule_at(sim.now, log.append, ("follow", sim.now)),
            ))
            for t in (1.0, 2.0, 3.0):
                sim.schedule_at(t, log.append, ("other", t))

        def with_reschedule(sim, log):
            def tick():
                log.append(("tick", sim.now))
                sim.schedule_at(sim.now, log.append, ("follow", sim.now))
                if sim.now < 3.0:
                    sim.schedule_at(sim.now + 1.0, tick)

            sim.schedule_at(1.0, tick)
            for t in (1.0, 2.0, 3.0):
                sim.schedule_at(t, log.append, ("other", t))

        for queue in ("public", "reference"):
            assert (
                _run_trace(queue, with_series)
                == _run_trace(queue, with_reschedule)
            )

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            sim.schedule_series([], lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_series([2.0, 1.0], lambda: None)  # not ascending
        with pytest.raises(ValueError):
            sim.schedule_series([math.nan], lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_series([0.5], lambda: None)  # in the past
        with pytest.raises(TypeError):
            sim.schedule_series([2.0], "not callable")  # type: ignore[arg-type]

    def test_extend_validates_like_schedule_series(self, sim):
        """Regression: extend() is an insertion path into the queue — an
        unchecked NaN appended mid-series used to wedge the clock."""
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) == 1:
                with pytest.raises(ValueError):
                    series.extend([math.nan])
                with pytest.raises(ValueError):
                    series.extend([sim.now - 1.0])  # behind the schedule
                with pytest.raises(ValueError):
                    series.extend([math.inf])
                series.extend([sim.now + 1.0])  # valid continuation

        series = sim.schedule_series([1.0], tick)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]
        assert len(series.times) == 2  # failed extends appended nothing

    def test_equal_times_allowed_within_series(self, sim):
        fired = []
        sim.schedule_series([1.0, 1.0, 2.0], lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0, 1.0, 2.0]

    def test_extend_prunes_consumed_history(self, sim):
        """A long-lived chunked series must hold ~one chunk, not its
        whole departure history (an O(total ticks) leak otherwise)."""
        fired = [0]
        chunk = 16

        def tick():
            fired[0] += 1
            if series.index + 1 >= len(series.times) and fired[0] < 200:
                series.extend(sim.now + 0.1 * (i + 1) for i in range(chunk))

        series = sim.schedule_series([1.0], tick)
        sim.run()
        assert fired[0] >= 200
        assert len(series.times) <= 2 * chunk
