"""Tests for repro.sim.engine."""

import math

import pytest



class TestScheduling:
    def test_now_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self, sim):
        order = []
        for tag in ("x", "y", "z"):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == ["x", "y", "z"]

    def test_priority_breaks_ties(self, sim):
        order = []
        sim.schedule(1.0, order.append, "late", priority=1)
        sim.schedule(1.0, order.append, "early", priority=-1)
        sim.run()
        assert order == ["early", "late"]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_non_callable_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.schedule(1.0, "not callable")  # type: ignore[arg-type]

    def test_handler_args_passed(self, sim):
        got = []
        sim.schedule(0.1, lambda a, b: got.append((a, b)), 1, "two")
        sim.run()
        assert got == [(1, "two")]


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        ran = []
        sim.schedule(1.0, ran.append, 1)
        sim.schedule(5.0, ran.append, 2)
        sim.run(until=2.0)
        assert ran == [1]
        assert sim.now == 2.0

    def test_until_advances_clock_even_when_queue_drains(self, sim):
        sim.schedule(0.5, lambda: None)
        assert sim.run(until=3.0) == 3.0

    def test_pending_events_survive_partial_run(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run(until=1.0)
        assert sim.pending() == 1
        sim.run(until=10.0)
        assert sim.pending() == 0

    def test_stop_halts_immediately(self, sim):
        ran = []
        sim.schedule(1.0, lambda: (ran.append(1), sim.stop()))
        sim.schedule(2.0, ran.append, 2)
        sim.run()
        assert ran == [1]

    def test_max_events(self, sim):
        ran = []
        for i in range(5):
            sim.schedule(i + 1.0, ran.append, i)
        sim.run(max_events=3)
        assert ran == [0, 1, 2]

    def test_events_executed_counter(self, sim):
        for i in range(4):
            sim.schedule(0.1 * (i + 1), lambda: None)
        sim.run()
        assert sim.events_executed == 4

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(RuntimeError):
            sim.run()

    def test_handler_scheduling_followups(self, sim):
        times = []

        def tick():
            times.append(sim.now)
            if len(times) < 3:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run()
        assert times == [1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_skipped(self, sim):
        ran = []
        ev = sim.schedule(1.0, ran.append, "no")
        ev.cancel()
        sim.run()
        assert ran == []

    def test_peek_time_skips_cancelled(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        ev.cancel()
        assert sim.peek_time() == 2.0

    def test_peek_time_empty(self, sim):
        assert sim.peek_time() == math.inf

    def test_pending_excludes_cancelled(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        ev.cancel()
        assert sim.pending() == 1

    def test_double_cancel_counts_once(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert sim.pending() == 1

    def test_cancel_after_run_is_noop(self, sim):
        ran = []
        ev = sim.schedule(1.0, ran.append, "yes")
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        ev.cancel()
        assert ran == ["yes"]
        assert sim.pending() == 1


class TestMassCancellation:
    """pending() must stay O(1) and exact under heavy lazy cancellation."""

    def test_pending_constant_time_under_mass_cancellation(self, sim):
        import time

        events = [sim.schedule(1.0 + i * 1e-6, lambda: None) for i in range(20_000)]
        for ev in events[::2]:
            ev.cancel()
        # O(1): pending() is a counter read, not a heap scan.  Calling it
        # many times must be near-instant even with 10k live + dead
        # entries queued; a linear scan would take seconds here.
        started = time.perf_counter()
        for _ in range(10_000):
            count = sim.pending()
        elapsed = time.perf_counter() - started
        assert count == 10_000
        assert elapsed < 1.0

    def test_compaction_keeps_execution_exact(self, sim):
        """Cancelling most of the queue still runs the survivors in order."""
        ran = []
        events = []
        for i in range(5_000):
            events.append(sim.schedule(1.0 + i, ran.append, i))
        for i, ev in enumerate(events):
            if i % 100 != 0:
                ev.cancel()
        assert sim.pending() == 50
        sim.run()
        assert ran == list(range(0, 5_000, 100))
        assert sim.pending() == 0

    def test_cancel_all_then_schedule_more(self, sim):
        events = [sim.schedule(1.0, lambda: None) for _ in range(1_000)]
        for ev in events:
            ev.cancel()
        assert sim.pending() == 0
        ran = []
        sim.schedule(2.0, ran.append, "still works")
        sim.run()
        assert ran == ["still works"]

    def test_peek_time_after_mass_cancellation(self, sim):
        events = [sim.schedule(1.0 + i, lambda: None) for i in range(500)]
        for ev in events[:-1]:
            ev.cancel()
        assert sim.peek_time() == events[-1].time


class TestHandleFreeEvents:
    """``schedule_anon``: an entry with no handle, checked like any other."""

    def test_returns_nothing_and_fires_in_order(self, sim):
        order = []
        assert sim.schedule_anon(2.0, order.append, "b") is None
        sim.schedule_at(1.0, order.append, "a")
        sim.schedule_anon(2.0, order.append, "first", priority=-1)
        sim.schedule_anon(3, order.append, "c")  # an int time is a time
        assert sim.pending() == 4
        sim.run()
        assert order == ["a", "first", "b", "c"]
        assert sim.events_executed == 4 and sim.pending() == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.5])
    def test_rejects_what_schedule_at_rejects(self, sim, bad):
        sim.run(until=1.0)
        with pytest.raises(ValueError, match="finite|past"):
            sim.schedule_anon(bad, lambda: None)
        with pytest.raises(TypeError, match="callable"):
            sim.schedule_anon(2.0, "not callable")
        # A refused call draws no seq and queues nothing.
        assert sim.pending() == 0
        assert sim.schedule_at(2.0, lambda: None).seq == 0

    def test_at_the_top_under_peek_time(self, sim):
        doomed = sim.schedule_at(1.0, lambda: None)
        sim.schedule_anon(2.0, lambda: None)
        doomed.cancel()
        assert sim.peek_time() == 2.0  # the dead handle above it is discarded
        assert sim.queue_stats()["queued"] == 1
        assert sim.peek_time() == 2.0 and sim.pending() == 1

    def test_at_the_top_under_until_and_max_events(self, sim):
        fired = []
        for t in (2.0, 3.0, 4.0):
            sim.schedule_anon(t, fired.append, t)
        assert sim.run(until=1.0) == 1.0
        assert fired == [] and sim.pending() == 3
        sim.run(until=2.0)  # a cut-off at the entry's own time runs it
        assert fired == [2.0]
        sim.run(max_events=1)
        assert fired == [2.0, 3.0] and sim.pending() == 1
        sim.run()
        assert fired == [2.0, 3.0, 4.0]

    def test_survives_compaction(self, sim):
        fired = []
        for i in range(10):
            sim.schedule_anon(5.0 + i, fired.append, i)
        doomed = [sim.schedule_at(1.0 + i * 1e-3, fired.append, "dead")
                  for i in range(300)]
        for ev in doomed:
            ev.cancel()
        stats = sim.queue_stats()
        assert stats["live"] == sim.pending() == 10
        assert stats["queued"] < 100 and stats["peak_occupancy"] == 310
        sim.run()
        assert fired == list(range(10))
