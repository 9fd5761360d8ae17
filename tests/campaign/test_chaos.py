"""The crash-injection harness, and the convergence claim it checks.

ISSUE 9's acceptance criterion: for worker deaths at randomized points
(mid-claim, mid-run, mid-artifact-write), ``campaign resume`` converges
with zero lost or duplicated cells and a final report byte-identical to
serial execution.  The targeted tests pin each torn on-disk state with
a probability-1.0 chaos point; the randomized test lets a seeded chaos
stream kill a two-worker pool wherever it lands.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign.chaos import (
    ChaosSpecError,
    chaos_active,
    parse_chaos_spec,
    reload_chaos,
)
from repro.campaign.diff import diff_stores
from repro.campaign.orchestrator import (
    open_store,
    prepare_store,
    run_campaign,
)
from repro.campaign.pool import run_pool
from repro.campaign.query import campaign_report
from repro.campaign.store import SERIES_SUFFIX
from repro.campaign.worker import run_worker
from repro.obs.bus import CallbackSink, EventBus

from tests.campaign.conftest import tiny_spec


class TestSpecParsing:
    def test_parses_points_and_probabilities(self):
        assert parse_chaos_spec("claim:0.2, write:1.0") \
            == {"claim": 0.2, "write": 1.0}

    def test_empty_spec_is_empty(self):
        assert parse_chaos_spec("") == {}
        assert parse_chaos_spec(" , ") == {}

    @pytest.mark.parametrize(
        "text", ["claim", ":0.5", "claim:not-a-number", "claim:1.5",
                 "claim:-0.1"],
    )
    def test_rejects_malformed_entries(self, text):
        with pytest.raises(ChaosSpecError):
            parse_chaos_spec(text)

    def test_chaos_active_tracks_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        reload_chaos()
        assert not chaos_active()
        monkeypatch.setenv("REPRO_CHAOS", "run:0.5")
        reload_chaos()
        try:
            assert chaos_active()
            assert chaos_active("run")
            assert not chaos_active("claim")
        finally:
            monkeypatch.delenv("REPRO_CHAOS")
            reload_chaos()

    def test_chaos_point_is_sigkill(self, tmp_path):
        """The armed point must die like a machine crash: SIGKILL, no
        cleanup — verified on a sacrificial interpreter."""
        script = (
            "import sys\n"
            "from repro.campaign.chaos import chaos_point\n"
            "chaos_point('x')\n"
            "print('survived')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "REPRO_CHAOS": "x:1.0"},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL
        assert "survived" not in proc.stdout
        assert "chaos: SIGKILL at point 'x'" in proc.stderr


@pytest.fixture(scope="module")
def serial_store(tmp_path_factory):
    """The reference: the tiny campaign executed serially, once."""
    spec = tiny_spec()
    root = tmp_path_factory.mktemp("serial-ref")
    report = run_campaign(spec, root, jobs=1)
    assert report.complete
    return spec, open_store(spec, root)


def _kill_worker_at(store, point: str) -> subprocess.CompletedProcess:
    """One worker subprocess, armed to die at ``point`` on first visit."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.campaign.worker",
            str(store.directory), "--worker", "w0", "--lease-ttl", "0.5",
        ],
        env={**os.environ, "REPRO_CHAOS": f"{point}:1.0"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, (
        point, proc.returncode, proc.stderr,
    )
    assert f"chaos: SIGKILL at point {point!r}" in proc.stderr
    return proc


def _assert_converges(spec, root, serial_store):
    """Resume (no chaos) and check the byte-identical-report claim."""
    report = run_worker(
        open_store(spec, root).directory, worker="resume", lease_ttl=0.5
    )
    assert report.remaining == 0, report
    _, reference = serial_store
    result = diff_stores(
        reference.directory, open_store(spec, root).directory
    )
    assert result.identical, (
        result.missing_in_a, result.missing_in_b, result.differing,
    )
    assert json.dumps(campaign_report(spec, root), sort_keys=True) \
        == json.dumps(
            campaign_report(spec, reference.directory.parent),
            sort_keys=True,
        )


class TestTargetedDeaths:
    """One test per chaos point: pin the torn state, then converge."""

    def test_death_mid_claim(self, tmp_path, serial_store):
        spec, _ = serial_store
        store = prepare_store(spec, tmp_path)
        _kill_worker_at(store, "claim")
        # Torn state: a lease filed by a now-dead worker, nothing else.
        assert len(store.iter_leases()) == 1
        assert store.run_ids() == set()
        time.sleep(0.6)  # let the orphaned lease expire
        _assert_converges(spec, tmp_path, serial_store)

    def test_death_mid_run(self, tmp_path, serial_store):
        spec, _ = serial_store
        store = prepare_store(spec, tmp_path)
        _kill_worker_at(store, "run")
        assert len(store.iter_leases()) == 1
        assert store.run_ids() == set()
        time.sleep(0.6)
        _assert_converges(spec, tmp_path, serial_store)

    def test_death_after_run_before_write(self, tmp_path, serial_store):
        spec, _ = serial_store
        store = prepare_store(spec, tmp_path)
        _kill_worker_at(store, "result")
        assert store.run_ids() == set()  # the whole run's work is lost
        time.sleep(0.6)
        _assert_converges(spec, tmp_path, serial_store)

    def test_death_mid_artifact_write(self, tmp_path, serial_store):
        spec, _ = serial_store
        store = prepare_store(spec, tmp_path)
        _kill_worker_at(store, "write")
        # Torn state: the series sidecar landed, the summary did not —
        # an orphan sidecar resume simply overwrites.
        assert store.run_ids() == set()
        orphans = list(store.runs_dir.rglob(f"*{SERIES_SUFFIX}"))
        assert len(orphans) == 1
        time.sleep(0.6)
        _assert_converges(spec, tmp_path, serial_store)

    def test_death_before_index_append(self, tmp_path, serial_store):
        spec, _ = serial_store
        store = prepare_store(spec, tmp_path)
        _kill_worker_at(store, "index")
        # Torn state: the artifact committed but its index row did not —
        # readers fall back to the artifact, nothing re-executes.
        assert len(store.run_ids()) == 1
        (done,) = store.run_ids()
        assert done not in store.read_index()
        time.sleep(0.6)
        _assert_converges(spec, tmp_path, serial_store)
        assert done in store.run_ids()  # never re-claimed or lost


class TestRandomizedPool:
    def test_seeded_chaos_pool_then_resume_converges(
        self, tmp_path, serial_store
    ):
        """The acceptance criterion end-to-end: a two-worker pool under
        a seeded random chaos stream (deaths wherever the dice land,
        respawns included), then a clean resume; the store and report
        must match serial execution exactly."""
        spec, _ = serial_store
        store = prepare_store(spec, tmp_path)
        deaths: list = []
        bus = EventBus()
        bus.subscribe(
            CallbackSink(deaths.append), kinds=("worker.died",)
        )
        report = run_pool(
            store.directory, jobs=2, lease_ttl=0.5,
            env={
                "REPRO_CHAOS": "claim:0.4,result:0.3",
                "REPRO_CHAOS_SEED": "icdcsw-9",
            },
            bus=bus,
        )
        assert report.deaths == len(deaths)
        for event in deaths:
            assert event.reason == "signal"
        # Whatever the pool left undone, a clean resume finishes.
        time.sleep(0.6)
        _assert_converges(spec, tmp_path, serial_store)

    def test_certain_death_exhausts_respawn_budget(self, tmp_path, spec):
        """With every claim fatal the pool must give up (bounded
        respawns), not fork-bomb — and report honestly."""
        store = prepare_store(spec, tmp_path)
        report = run_pool(
            store.directory, jobs=1, lease_ttl=0.5, respawn_limit=2,
            env={"REPRO_CHAOS": "claim:1.0"},
        )
        assert not report.complete
        assert report.executed == 0
        assert report.respawns == 2
        assert report.deaths == 3  # the original worker + both respawns
        assert {e.reason for e in report.exits} == {"signal"}


class TestChaosAgainstTheCli:
    """The harness against a parent, not just the pool: ``campaign run
    --jobs 2`` is the same lease-pull workers, so it must survive them
    dying.  (``serve --campaign --jobs 2`` has the twin of this test in
    ``tests/obs/test_serve.py``.)"""

    def test_campaign_run_survives_dying_workers(
        self, tmp_path, serial_store, monkeypatch, capsys
    ):
        from repro.experiments.cli import main

        spec, _ = serial_store
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        argv = [str(spec_path), "--root", str(tmp_path),
                "--jobs", "2", "--lease-ttl", "0.5"]
        # Workers inherit the environment; under this seed w0 and w1
        # both die after their first cell ran, before it is written.
        monkeypatch.setenv("REPRO_CHAOS", "result:0.5")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "every-parent-28")
        code = main(["campaign", "run", *argv])
        out = capsys.readouterr().out
        assert code in (0, 1)  # complete, or honestly incomplete
        assert "died (signal, exit -9)" in out
        assert "worker deaths survived" in out

        monkeypatch.delenv("REPRO_CHAOS")
        time.sleep(0.6)  # let orphaned leases expire
        assert main(["campaign", "resume", *argv]) == 0
        _assert_converges(spec, tmp_path, serial_store)
