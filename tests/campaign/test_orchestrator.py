"""Tests for repro.campaign.orchestrator: execution, resume, determinism.

The acceptance property for the subsystem lives here: a campaign killed
mid-grid and resumed produces per-run summaries and aggregated exports
bit-identical to one uninterrupted execution, and resuming a complete
campaign executes zero runs.
"""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.campaign.orchestrator import campaign_status, open_store, run_campaign
from repro.campaign.query import campaign_report

from tests.campaign.conftest import tiny_spec


class TestRunCampaign:
    def test_executes_the_whole_plan(self, tmp_path, spec):
        report = run_campaign(spec, root=tmp_path, jobs=1)
        assert report.planned == 4
        assert report.executed == 4
        assert report.cached == 0
        assert report.complete
        store = open_store(spec, tmp_path)
        assert store.run_ids() == {run.run_id for run in spec.plan()}
        assert store.read_manifest() == spec.to_dict()

    def test_artifacts_carry_axis_points(self, tmp_path, spec):
        run_campaign(spec, root=tmp_path, jobs=1)
        store = open_store(spec, tmp_path)
        points = [run.point for run in store.iter_runs()]
        assert {p["attack_fraction"] for p in points} == {0.25, 0.5}

    def test_max_runs_caps_new_executions(self, tmp_path, spec):
        report = run_campaign(spec, root=tmp_path, jobs=1, max_runs=3)
        assert report.executed == 3
        assert not report.complete
        status = campaign_status(spec, tmp_path)
        assert status.complete == 3
        assert len(status.missing) == 1

    def test_progress_callback_fires_once_per_filed_cell(
        self, tmp_path, spec
    ):
        seen = []
        run_campaign(
            spec, root=tmp_path, jobs=1,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_max_runs_with_cell_timeout_rejected(self, tmp_path, spec):
        """max_runs executes in this process; cell_timeout's watchdog
        would ``os._exit`` it."""
        with pytest.raises(ValueError, match="cell_timeout"):
            run_campaign(spec, root=tmp_path, max_runs=1, cell_timeout=5.0)

    def test_bad_max_runs_rejected(self, tmp_path, spec):
        with pytest.raises(ValueError, match="max_runs"):
            run_campaign(spec, root=tmp_path, jobs=1, max_runs=-1)

    def test_resume_at_other_bin_width_rejected(self, tmp_path, spec):
        """The manifest pins series_bin_width: a mismatched resume would
        mix time resolutions across artifacts, so it refuses."""
        from repro.campaign.store import StoreError

        run_campaign(spec, root=tmp_path, jobs=1, max_runs=1)
        with pytest.raises(StoreError, match="bin width"):
            run_campaign(spec, root=tmp_path, jobs=1, series_bin_width=0.2)
        # The recorded width resumes fine.
        assert run_campaign(spec, root=tmp_path, jobs=1).complete


class TestResumeDeterminism:
    def test_interrupted_resume_is_bit_identical(self, tmp_path):
        """Kill mid-grid, resume, compare against one uninterrupted pass."""
        spec = tiny_spec(name="interrupted")

        # Reference: a single uninterrupted execution in its own root.
        ref_root = tmp_path / "ref"
        run_campaign(spec, root=ref_root, jobs=1)

        # Interrupted: stop after 2 of 4 runs, then resume.
        cut_root = tmp_path / "cut"
        first = run_campaign(spec, root=cut_root, jobs=1, max_runs=2)
        assert (first.executed, first.complete) == (2, False)
        second = run_campaign(spec, root=cut_root, jobs=1)
        assert second.cached == 2
        assert second.executed == 2
        assert second.complete

        ref_store = open_store(spec, ref_root)
        cut_store = open_store(spec, cut_root)
        for planned in spec.plan():
            ref_artifact = ref_store.run_path(planned.run_id).read_text()
            cut_artifact = cut_store.run_path(planned.run_id).read_text()
            # Whole artifacts match bit-for-bit outside wall-clock timing.
            ref_payload = json.loads(ref_artifact)
            cut_payload = json.loads(cut_artifact)
            del ref_payload["timing"], cut_payload["timing"]
            assert ref_payload == cut_payload

        # Aggregated exports are byte-identical.
        ref_report = json.dumps(campaign_report(spec, ref_root), sort_keys=True)
        cut_report = json.dumps(campaign_report(spec, cut_root), sort_keys=True)
        assert ref_report == cut_report

    def test_resume_after_artifact_loss(self, tmp_path, spec):
        run_campaign(spec, root=tmp_path, jobs=1)
        store = open_store(spec, tmp_path)
        before = campaign_report(spec, tmp_path)

        # Lose half the artifacts (every other planned run).
        victims = [run.run_id for run in spec.plan()[::2]]
        for run_id in victims:
            store.run_path(run_id).unlink()
        assert not campaign_status(spec, tmp_path).is_complete

        report = run_campaign(spec, root=tmp_path, jobs=1)
        assert report.cached == 2
        assert report.executed == 2
        assert campaign_report(spec, tmp_path) == before

    def test_second_resume_executes_zero_runs(self, tmp_path, spec):
        run_campaign(spec, root=tmp_path, jobs=1)
        again = run_campaign(spec, root=tmp_path, jobs=1)
        assert again.executed == 0
        assert again.cached == again.planned == 4
        assert again.complete


class TestIncrementalExtension:
    def test_added_seeds_run_only_the_new_cells(self, tmp_path):
        small = tiny_spec(name="grow", seeds=(1, 2))
        run_campaign(small, root=tmp_path, jobs=1)

        grown = tiny_spec(name="grow", seeds=(1, 2, 3))
        report = run_campaign(grown, root=tmp_path, jobs=1)
        assert report.planned == 6
        assert report.cached == 4
        assert report.executed == 2

    def test_added_axis_point_runs_only_the_new_cells(self, tmp_path):
        base = tiny_spec(name="grow-axis")
        run_campaign(base, root=tmp_path, jobs=1)

        wider = tiny_spec(
            name="grow-axis",
            axes=[{"field": "attack_fraction", "values": (0.25, 0.5, 0.75)}],
        )
        report = run_campaign(wider, root=tmp_path, jobs=1)
        assert report.cached == 4
        assert report.executed == 2
        # The narrower spec still reads its subset cleanly.
        assert campaign_status(base, tmp_path).is_complete
        assert campaign_status(base, tmp_path).unplanned == 2


class TestStatus:
    def test_empty_store(self, tmp_path, spec):
        status = campaign_status(spec, tmp_path)
        assert status.planned == 4
        assert status.complete == 0
        assert len(status.missing) == 4
        assert not status.is_complete


class TestObservability:
    def test_bus_receives_run_and_progress_events(self, tmp_path, spec):
        from repro.obs import BufferedSink, EventBus

        bus = EventBus()
        sink = bus.subscribe(BufferedSink())
        report = run_campaign(spec, root=tmp_path, jobs=1, bus=bus)
        assert report.executed == 4

        runs = sink.of_kind("campaign.run")
        assert len(runs) == 4
        assert {e.run_id for e in runs} == {r.run_id for r in spec.plan()}
        assert all(e.wall_seconds > 0 for e in runs)
        assert {e.point["attack_fraction"] for e in runs} == {0.25, 0.5}

        progress = sink.of_kind("campaign.progress")
        assert [(e.done, e.total) for e in progress] \
            == [(1, 4), (2, 4), (3, 4), (4, 4)]
        assert all(e.name == spec.name for e in progress)
        # One progress per filed cell, right behind its campaign.run.
        filed = [e.kind for e in sink.events if e.kind.startswith("campaign.")]
        assert filed == ["campaign.run", "campaign.progress"] * 4

    def test_cached_cells_emit_nothing(self, tmp_path, spec):
        from repro.obs import BufferedSink, EventBus

        run_campaign(spec, root=tmp_path, jobs=1)
        bus = EventBus()
        sink = bus.subscribe(BufferedSink())
        report = run_campaign(spec, root=tmp_path, jobs=1, bus=bus)
        assert report.executed == 0
        assert sink.of_kind("campaign.run") == []

    def test_interrupt_mid_cell_releases_the_lease(self, tmp_path, spec,
                                                   monkeypatch):
        """Ctrl-C mid-cell: no exception escapes, the report says
        interrupted, the in-flight cell's lease is released, and every
        earlier cell is filed and resumes cleanly."""
        import repro.experiments.runner as runner

        calls = {"n": 0}
        real_run_experiment = runner.run_experiment

        def interrupting_run_experiment(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
            return real_run_experiment(*args, **kwargs)

        monkeypatch.setattr(
            runner, "run_experiment", interrupting_run_experiment
        )
        report = run_campaign(spec, root=tmp_path, jobs=1)
        assert report.interrupted
        assert report.executed == 2
        assert report.remaining == 2
        assert not report.complete
        store = open_store(spec, tmp_path)
        assert len(store.run_ids()) == 2
        assert store.iter_leases() == []

        monkeypatch.setattr(runner, "run_experiment", real_run_experiment)
        resumed = run_campaign(spec, root=tmp_path, jobs=1)
        assert not resumed.interrupted
        assert resumed.complete
        assert resumed.executed == 2

    def test_profile_path_profiles_exactly_one_cell(self, tmp_path, spec):
        out = tmp_path / "cell.prof"
        report = run_campaign(
            spec, root=tmp_path / "store",
            profile_path=str(out),
        )
        assert report.executed == 1
        assert report.jobs == 1
        assert out.exists() and out.stat().st_size > 0
        # The profiled artifact is a normal artifact: resume skips it.
        resumed = run_campaign(spec, root=tmp_path / "store", jobs=1)
        assert resumed.cached == 1
        assert resumed.executed == 3
        assert resumed.complete


class TestConcurrentParents:
    def test_two_campaign_runs_split_the_grid(self, tmp_path):
        """Two ``run_campaign(jobs=1)`` processes released onto one
        fresh store at the same instant: leases split the grid, so the
        executed counts sum to the plan (waves ran all of it twice) and
        the store equals a single pass."""
        from repro.campaign.diff import diff_stores

        spec = tiny_spec(name="shared", seeds=(1, 2, 3, 4))
        planned = len(spec.plan())
        run_campaign(spec, root=tmp_path / "ref", jobs=1)

        script = textwrap.dedent(
            """
            import json, pathlib, sys, time
            from repro.campaign.orchestrator import run_campaign
            from repro.campaign.spec import CampaignSpec

            spec = CampaignSpec.from_dict(json.loads(sys.argv[1]))
            root, me = pathlib.Path(sys.argv[2]), sys.argv[3]
            (root / f"ready-{me}").touch()
            deadline = time.monotonic() + 60
            while not (root / "go").exists():
                assert time.monotonic() < deadline, "never released"
                time.sleep(0.005)
            report = run_campaign(spec, root=root / "store", jobs=1)
            print(json.dumps([report.executed, report.complete]))
            """
        )
        root = tmp_path / "both"
        root.mkdir()
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, json.dumps(spec.to_dict()),
                 str(root), me],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env,
            )
            for me in ("a", "b")
        ]
        try:
            deadline = time.monotonic() + 60
            while not all((root / f"ready-{me}").exists() for me in "ab"):
                assert time.monotonic() < deadline, "a parent never started"
                time.sleep(0.01)
            (root / "go").touch()
            outs = [proc.communicate(timeout=120) for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
        results = []
        for proc, (out, err) in zip(procs, outs):
            assert proc.returncode == 0, err
            results.append(json.loads(out))
        assert sum(executed for executed, _ in results) == planned
        assert all(executed > 0 for executed, _ in results), results
        assert all(complete for _, complete in results)
        result = diff_stores(
            open_store(spec, tmp_path / "ref").directory,
            open_store(spec, root / "store").directory,
        )
        assert result.identical, result.differing
