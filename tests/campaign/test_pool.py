"""Worker-pull execution: ``run_worker``, ``run_pool``, equivalence.

The contract: worker subprocesses produce the *same store* the
in-process loop does.  Fast paths monkeypatch ``run_experiment`` or stay
in-process; only a handful of tests pay for real subprocess workers on
the 4-cell tiny grid.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
import time

import pytest

import repro.experiments.runner as runner_module
from repro.campaign.diff import diff_stores
from repro.campaign.orchestrator import (
    open_store,
    prepare_store,
    run_campaign,
)
from repro.campaign.pool import run_distributed, run_pool
from repro.campaign.store import StoreError
from repro.campaign.worker import (
    EXIT_CELL_TIMEOUT,
    EXIT_DRAINED_QUARANTINE,
    run_worker,
)
from repro.obs.bus import CallbackSink, EventBus
from repro.obs.events import WorkerDied

from tests.campaign.conftest import fabricate_result



def _fabricating(monkeypatch, delay: float = 0.0, fail=None):
    """Swap the simulation for a fabricated result (optionally failing).

    ``fail`` maps seed -> how many times that cell raises before it
    succeeds.  Workers import ``run_experiment`` at call time, so the
    module-attribute patch reaches them.
    """
    attempts: dict[int, int] = {}

    def fake_run_experiment(config, series_bin_width=0.05, bus=None,
                            **kwargs):
        if delay:
            time.sleep(delay)
        if fail:
            budget = fail.get(config.seed, 0)
            used = attempts.get(config.seed, 0)
            if used < budget:
                attempts[config.seed] = used + 1
                raise RuntimeError(f"injected fault #{used + 1}")
        return fabricate_result(config)

    monkeypatch.setattr(runner_module, "run_experiment", fake_run_experiment)
    return attempts


class TestRunWorker:
    def test_drains_the_whole_plan(self, tmp_path, spec, monkeypatch):
        _fabricating(monkeypatch)
        store = prepare_store(spec, tmp_path)
        report = run_worker(store.directory, worker="w0")
        assert report.executed == len(spec.plan())
        assert report.remaining == 0
        assert report.exit_code == 0
        assert {r.run_id for r in spec.plan()} <= store.run_ids()
        assert store.iter_leases() == []  # every claim released

    def test_store_matches_serial_execution(self, tmp_path, spec):
        """A bare worker on a hand-prepared store lands on the bytes
        ``run_campaign`` (``prepare_store`` + the same loop) files."""
        serial = run_campaign(spec, tmp_path / "serial", jobs=1)
        assert serial.complete
        store = prepare_store(spec, tmp_path / "pull")
        run_worker(store.directory, worker="w0")
        result = diff_stores(
            open_store(spec, tmp_path / "serial").directory, store.directory
        )
        assert result.identical, result.differing

    def test_resumes_a_partial_store(self, tmp_path, spec, monkeypatch):
        _fabricating(monkeypatch)
        store = prepare_store(spec, tmp_path)
        done = spec.plan()[0]
        store.write_result(
            fabricate_result(done.config),
            point=done.point, series_bin_width=0.05,
        )
        report = run_worker(store.directory, worker="w0")
        assert report.executed == len(spec.plan()) - 1

    def test_max_cells_stops_early(self, tmp_path, spec, monkeypatch):
        _fabricating(monkeypatch)
        store = prepare_store(spec, tmp_path)
        report = run_worker(store.directory, worker="w0", max_cells=2)
        assert report.executed == 2
        assert report.remaining == len(spec.plan()) - 2

    def test_missing_store_raises(self, tmp_path):
        with pytest.raises(StoreError, match="no campaign store"):
            run_worker(tmp_path / "nope")

    def test_leaves_the_callers_bus_open(self, tmp_path, spec, monkeypatch):
        """The bus is the caller's (a CLI recorder, a dashboard): the
        worker emits on it and must not close it on the way out."""
        _fabricating(monkeypatch)
        store = prepare_store(spec, tmp_path)

        class Sink:
            def __init__(self):
                self.kinds, self.closed = [], False

            def emit(self, event):
                self.kinds.append(event.kind)

            def close(self):
                self.closed = True

        bus = EventBus()
        sink = bus.subscribe(Sink())
        run_worker(store.directory, worker="w0", max_cells=1, bus=bus)
        assert sink.kinds == ["worker.started", "campaign.run"]
        assert not sink.closed
        bus.emit(WorkerDied(time=0.0, worker="w0", reason="test", exitcode=1))
        assert sink.kinds[-1] == "worker.died"


class TestFailures:
    def test_flaky_cell_retries_after_backoff(
        self, tmp_path, spec, monkeypatch
    ):
        attempts = _fabricating(monkeypatch, fail={1: 1})
        store = prepare_store(spec, tmp_path)
        report = run_worker(store.directory, worker="w0")
        assert report.executed == len(spec.plan())
        assert report.failed == 1  # the injected fault fired exactly once
        assert attempts == {1: 1}
        assert report.remaining == 0
        assert store.iter_failures() == []  # success cleared the ledger

    def test_persistent_failure_quarantines_with_traceback(
        self, tmp_path, spec, monkeypatch, capsys
    ):
        _fabricating(monkeypatch, fail={1: 99})
        store = prepare_store(spec, tmp_path)
        report = run_worker(
            store.directory, worker="w0", max_attempts=1
        )
        assert report.exit_code == EXIT_DRAINED_QUARANTINE
        assert report.quarantined == 2 == report.remaining
        quarantined = store.quarantined_ids()
        assert len(quarantined) == 2
        for run_id in quarantined:
            record = store.read_failure(run_id)
            assert record.quarantined
            assert "injected fault" in record.error
            assert "RuntimeError" in record.traceback
        assert "quarantined" in capsys.readouterr().err

    def test_quarantine_clears_and_reruns(
        self, tmp_path, spec, monkeypatch
    ):
        """The ``resume --retry-failed`` path: clear the ledger, pull
        again, converge."""
        faults = {run.seed: 99 for run in spec.plan()}
        _fabricating(monkeypatch, fail=faults)
        store = prepare_store(spec, tmp_path)
        report = run_worker(store.directory, worker="w0", max_attempts=1)
        assert report.executed == 0
        assert report.quarantined == len(spec.plan())
        faults.clear()  # the transient condition passes
        assert store.clear_failures() == len(spec.plan())
        report = run_worker(store.directory, worker="w0", max_attempts=1)
        assert report.executed == len(spec.plan())
        assert report.exit_code == 0


class TestEvents:
    def test_worker_lifecycle_events(self, tmp_path, spec, monkeypatch):
        _fabricating(monkeypatch, delay=0.25)
        store = prepare_store(spec, tmp_path)
        kinds: list[str] = []
        by_kind: dict[str, list] = {}
        bus = EventBus()
        bus.subscribe(CallbackSink(
            lambda e: (kinds.append(e.kind),
                       by_kind.setdefault(e.kind, []).append(e))
        ))
        run_worker(
            store.directory, worker="w0", lease_ttl=0.3,
            max_cells=1, bus=bus,
        )
        assert kinds[0] == "worker.started"
        started = by_kind["worker.started"][0]
        assert started.worker == "w0"
        assert started.cells == len(spec.plan())
        assert by_kind["worker.heartbeat"], "watchdog never heartbeat"
        beat = by_kind["worker.heartbeat"][0]
        assert beat.worker == "w0" and beat.elapsed > 0
        assert len(by_kind["campaign.run"]) == 1


class TestPool:
    def test_pool_completes_and_matches_serial(
        self, tmp_path, spec, monkeypatch
    ):
        """Two real subprocess workers drain the tiny grid; the store
        byte-matches the serial one (real simulations both sides)."""
        serial = run_campaign(spec, tmp_path / "serial", jobs=1)
        assert serial.complete
        store = prepare_store(spec, tmp_path / "pool")
        report = run_pool(store.directory, jobs=2, lease_ttl=5.0)
        assert report.complete, report.exits
        assert report.executed == len(spec.plan())
        assert report.deaths == 0
        assert {e.reason for e in report.exits} == {"drained"}
        result = diff_stores(
            open_store(spec, tmp_path / "serial").directory, store.directory
        )
        assert result.identical, result.differing

    def test_pool_short_circuits_a_complete_store(
        self, tmp_path, spec, monkeypatch
    ):
        _fabricating(monkeypatch)
        store = prepare_store(spec, tmp_path)
        run_worker(store.directory, worker="w0")
        report = run_pool(store.directory, jobs=2)
        assert report.complete
        assert report.cached == len(spec.plan())
        assert report.executed == 0
        assert report.exits == []  # nothing was spawned

    def test_no_workers_for_cells_that_do_not_exist(
        self, tmp_path, spec, monkeypatch
    ):
        """jobs=4 with one cell missing starts one worker, not four."""
        _fabricating(monkeypatch)
        store = prepare_store(spec, tmp_path)
        run_worker(store.directory, worker="w0", max_cells=3)
        started: list = []
        bus = EventBus()
        bus.subscribe(CallbackSink(started.append), kinds=("worker.started",))
        report = run_pool(store.directory, jobs=4, lease_ttl=5.0, bus=bus)
        assert report.complete and report.executed == 1
        assert [event.worker for event in started] == ["w0"]
        assert report.jobs == 1 and len(report.exits) == 1

    def test_run_distributed_returns_campaign_report(self, tmp_path, spec):
        report = run_distributed(spec, tmp_path, jobs=1, lease_ttl=5.0)
        assert report.name == spec.name
        assert report.complete
        assert report.planned == len(spec.plan())
        assert report.quarantined == 0 and report.deaths == 0
        # And a second invocation is all cache.
        again = run_distributed(spec, tmp_path, jobs=1)
        assert again.cached == len(spec.plan())
        assert again.executed == 0


class TestCellTimeout:
    def test_wedged_cell_exits_75_and_charges_the_ledger(
        self, tmp_path, spec
    ):
        """A subprocess (the watchdog ``os._exit``\\ s the whole
        process) wedges its first cell; it must die with
        :data:`EXIT_CELL_TIMEOUT` *after* filing the failure."""
        store = prepare_store(spec, tmp_path)
        script = textwrap.dedent(
            """
            import sys, time
            import repro.experiments.runner as runner

            def wedged(config, **kwargs):
                time.sleep(120)

            runner.run_experiment = wedged
            from repro.campaign.worker import main
            sys.exit(main([
                sys.argv[1], "--worker", "w0",
                "--lease-ttl", "0.6", "--cell-timeout", "0.5",
            ]))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(store.directory)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_CELL_TIMEOUT, proc.stderr
        assert "timed out" in proc.stderr
        failures = store.iter_failures()
        assert len(failures) == 1
        assert "cell timeout" in failures[0].error
        assert not failures[0].quarantined  # one attempt of three
        # The lease was released before the exit: the cell is
        # immediately reclaimable by a replacement.
        assert store.iter_leases() == []
