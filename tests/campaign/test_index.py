"""The ``index.jsonl`` summary index: append, tolerate, rebuild, equal.

The contract under test: the index is a *cache*.  Reports built through
it are identical to reports built by scanning artifacts; any torn,
missing, or stale row degrades to the artifact truth instead of
changing an answer.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.orchestrator import open_store
from repro.campaign.query import campaign_report, load_runs
from repro.experiments.cli import main

from tests.campaign.conftest import fabricate_result


@pytest.fixture
def filled(tmp_path, spec):
    """A complete (fabricated) campaign store and its spec."""
    store = open_store(spec, tmp_path).ensure()
    store.pin_series_bin_width(0.05)
    store.write_manifest(spec.to_dict(), series_bin_width=0.05)
    for planned in spec.plan():
        store.write_result(
            fabricate_result(planned.config),
            point=planned.point, series_bin_width=0.05,
        )
    return store


class TestAppend:
    def test_write_result_appends_one_row_per_artifact(self, filled, spec):
        rows = filled.read_index()
        assert set(rows) == {run.run_id for run in spec.plan()}

    def test_rows_carry_the_summary_fields(self, filled, spec):
        planned = spec.plan()[0]
        row = filled.read_index()[planned.run_id]
        direct = filled.read_run(planned.run_id, load_series=False)
        via_index = filled.run_from_index_row(
            row, planned.config, planned.point
        )
        assert via_index.summary == direct.summary
        assert via_index.activation_time == direct.activation_time
        assert via_index.identified_atrs == direct.identified_atrs
        assert via_index.true_atrs == direct.true_atrs
        assert via_index.events_executed == direct.events_executed
        assert via_index.series_bin_width == direct.series_bin_width
        assert via_index.series.times == []  # summary-only by contract

    def test_duplicate_rows_last_wins(self, filled, spec):
        planned = spec.plan()[0]
        payload = json.loads(
            filled.run_path(planned.run_id).read_text(encoding="utf-8")
        )
        payload["events_executed"] = 999999
        filled.append_index_row(payload)
        assert filled.read_index()[planned.run_id]["events_executed"] \
            == 999999


class TestTolerance:
    def test_torn_trailing_line_is_skipped(self, filled):
        before = filled.read_index()
        with open(filled.index_path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "torn-wri')  # no newline: a crash
        assert filled.read_index() == before

    def test_append_after_torn_line_still_parses(self, filled, spec):
        """The leading-newline framing terminates a dead writer's
        fragment, so the next append survives it."""
        with open(filled.index_path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "torn-wri')
        planned = spec.plan()[0]
        payload = json.loads(
            filled.run_path(planned.run_id).read_text(encoding="utf-8")
        )
        payload["events_executed"] = 31337
        filled.append_index_row(payload)
        rows = filled.read_index()
        assert rows[planned.run_id]["events_executed"] == 31337
        assert "torn-wri" not in rows

    def test_missing_index_falls_back_to_scan(self, filled, spec, tmp_path):
        with_index = campaign_report(spec, tmp_path)
        filled.index_path.unlink()
        assert campaign_report(spec, tmp_path) == with_index

    def test_report_identical_via_index_and_via_scan(
        self, filled, spec, tmp_path
    ):
        via_index = campaign_report(spec, tmp_path)
        filled.index_path.unlink()
        via_scan = campaign_report(spec, tmp_path)
        assert json.dumps(via_index, sort_keys=True) \
            == json.dumps(via_scan, sort_keys=True)

    def test_stale_row_cannot_resurrect_a_deleted_run(
        self, filled, spec, tmp_path
    ):
        victim = spec.plan()[0]
        filled.run_path(victim.run_id).unlink()
        for sidecar in filled._existing_sidecars(
            filled.run_path(victim.run_id)
        ):
            sidecar.unlink()
        assert victim.run_id in filled.read_index()  # row still there
        runs = load_runs(spec, tmp_path, with_series=False)
        assert victim.run_id not in {run.run_id for run in runs}

    def test_older_row_shape_falls_back_to_artifact(
        self, filled, spec, tmp_path
    ):
        """A row missing fields (written by an older version) must not
        crash or mis-answer — the artifact is re-read instead."""
        planned = spec.plan()[0]
        rows = filled.read_index()
        rows[planned.run_id] = {"run_id": planned.run_id}  # shape-poor row
        filled.index_path.write_text(
            "".join(json.dumps(r) + "\n" for r in rows.values()),
            encoding="utf-8",
        )
        runs = load_runs(spec, tmp_path, with_series=False)
        assert {run.run_id for run in runs} \
            == {run.run_id for run in spec.plan()}


class TestRebuild:
    def test_rebuild_drops_stale_and_duplicate_rows(self, filled, spec):
        planned = spec.plan()[0]
        payload = json.loads(
            filled.run_path(planned.run_id).read_text(encoding="utf-8")
        )
        filled.append_index_row(payload)  # duplicate
        with open(filled.index_path, "a", encoding="utf-8") as handle:
            handle.write('\n{"run_id": "gone"}\n')  # stale
        n = filled.rebuild_index()
        assert n == len(spec.plan())
        text = filled.index_path.read_text(encoding="utf-8")
        assert text.count(planned.run_id) == 1
        assert "gone" not in text

    def test_gc_apply_repairs_the_index_with_nothing_unplanned(
        self, filled, spec, tmp_path
    ):
        """``campaign gc --apply`` is the verb that rebuilds the index:
        a torn tail and a stale row go even when gc prunes no file."""
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        root = ["--root", str(tmp_path)]
        report_file = tmp_path / "report.json"

        def report_bytes() -> bytes:
            assert main(["campaign", "report", str(spec_file), *root,
                         "--json", str(report_file)]) == 0
            return report_file.read_bytes()

        with open(filled.index_path, "a", encoding="utf-8") as handle:
            handle.write('\n{"run_id": "gone", "artifact_bytes": 1}\n')
            handle.write('{"run_id": "torn", "summ')
        before = report_bytes()

        assert main(["campaign", "gc", str(spec_file), *root, "--apply"]) == 0
        rows = [
            json.loads(line)  # every line parses: no torn fragment left
            for line in filled.index_path.read_text().splitlines()
        ]
        assert sorted(row["run_id"] for row in rows) \
            == sorted(r.run_id for r in spec.plan())
        assert all(filled.index_row_fresh(row) for row in rows)
        assert report_bytes() == before

    def test_gc_apply_drops_pruned_rows(self, filled, spec, tmp_path):
        victim = spec.plan()[0]
        keep_ids = {r.run_id for r in spec.plan()} - {victim.run_id}
        filled.gc(keep_ids, apply=True)
        assert victim.run_id not in filled.read_index()
        assert set(filled.read_index()) == keep_ids
