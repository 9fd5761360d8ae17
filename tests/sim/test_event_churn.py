"""Queue-churn regressions: lazy RTO timers and handle-free link events.

Two per-event costs are gone from the hot path: TCP's per-ACK RTO
cancel+reschedule round trip (an in-place ``Simulator.postpone``) and
the Event handle of every fire-and-forget link callback
(``schedule_anon`` pushes a bare heap entry).  Both are required to be
bit-exact — same results, same event counts — so the *only* observable
difference is bookkeeping.  Each test runs the scenario against the
formulation it replaced, spelled out here as the reference, so a
refactor that quietly reverts to it fails loudly instead of just
getting slower.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.sim.engine import PySimulator
from repro.transport.tcp import TcpSender


def _small_config():
    return ExperimentConfig(total_flows=12, n_routers=10, duration=3.0, seed=11)


def _eager_restart_rto(self):
    """``TcpSender._restart_rto`` the eager way: cancel, then reschedule."""
    ev = self._rto_event
    if ev is not None:
        ev.cancel()
        self._rto_event = None
    if self.in_flight > 0 and not self.stopped:
        self._rto_event = self.sim.schedule(self.rto, self._on_timeout)


class _HandleSimulator(PySimulator):
    """``schedule_anon`` the handle way: a full ``schedule_at``."""

    def schedule_anon(self, time, fn, *args, priority=0):
        self.schedule_at(time, fn, *args, priority=priority)


class TestLazyRtoTimers:
    def test_bit_exact_and_fewer_pushes(self, monkeypatch):
        lazy = run_experiment(_small_config())
        lazy_stats = lazy.scenario.sim.queue_stats()
        monkeypatch.setattr(TcpSender, "_restart_rto", _eager_restart_rto)
        eager = run_experiment(_small_config())
        eager_stats = eager.scenario.sim.queue_stats()

        # Identical simulation: the postpone path draws exactly one seq
        # per ACK, like cancel+reschedule does.
        assert lazy.fingerprint() == eager.fingerprint()

        # The point of the lazy path: every ACK that used to cancel and
        # re-push its RTO timer now updates it in place, so whole
        # percents of all queue traffic disappear (a stale tuple only
        # costs a re-push when the old deadline actually surfaces
        # first).  ~7% of total pushes on this workload; gate at 5% so
        # the test pins "substantial", not this exact scenario mix.
        assert lazy_stats["pushes"] < eager_stats["pushes"]
        saved = eager_stats["pushes"] - lazy_stats["pushes"]
        assert saved > eager_stats["pushes"] * 0.05


class TestHandleFreeEvents:
    def test_bit_exact_and_same_counters(self, monkeypatch):
        bare = run_experiment(_small_config())
        bare_stats = bare.scenario.sim.queue_stats()
        monkeypatch.setattr("repro.sim.topology.Simulator", _HandleSimulator)
        handled = run_experiment(_small_config())
        assert type(handled.scenario.sim) is _HandleSimulator

        # One seq per event either way, so the same run — and the same
        # occupancy, since an entry counts the same with or without a
        # handle behind it.  (The event_pool_* keys are 0 on both sides:
        # there is no free list left to count.)
        assert bare.fingerprint() == handled.fingerprint()
        assert bare_stats == handled.scenario.sim.queue_stats()
        assert bare_stats["event_pool_reused"] == 0
        assert bare_stats["pushes"] > bare.events_executed
