"""gc round-trips over the campaign store.

The acceptance property: ``gc`` removes exactly the unplanned artifacts
and debris — after which a resume re-executes only what gc removed.
"""

import json
import os

import pytest

from repro.campaign.orchestrator import (
    campaign_gc,
    campaign_status,
    open_store,
    run_campaign,
)
from repro.campaign.query import campaign_report
from repro.campaign.store import CampaignStore, StoreError

from tests.campaign.conftest import fabricate_result, tiny_spec

WIDE_AXES = [{"field": "attack_fraction", "values": (0.25, 0.5, 0.75)}]


def report_bytes(spec, root) -> str:
    return json.dumps(campaign_report(spec, root), sort_keys=True)


class TestGC:
    def plant_debris(self, store: CampaignStore, stale: bool = True) -> tuple:
        """An orphan sidecar and a leftover atomic-write temp file,
        backdated past gc's live-writer age guard unless ``stale=False``."""
        orphan = store.runs_dir / "fe" / "feedfacefeedface.series.json"
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_text('{"schema": 2}\n')
        tmp = store.runs_dir / "junk.json.abc123.tmp"
        tmp.write_text("half-written")
        if stale:
            for path in (orphan, tmp):
                os.utime(path, (0, 0))
        return orphan, tmp

    def populate(self, spec, root) -> CampaignStore:
        store = open_store(spec, root).ensure()
        for planned in spec.plan():
            store.write_result(
                fabricate_result(planned.config), point=planned.point
            )
        return store

    def test_dry_run_is_default_and_deletes_nothing(self, tmp_path):
        wide = tiny_spec(name="g", axes=WIDE_AXES)
        store = self.populate(wide, tmp_path)
        orphan, tmp = self.plant_debris(store)
        narrow = tiny_spec(name="g")  # drops the 0.75 axis point

        report = campaign_gc(narrow, tmp_path)
        assert not report.applied
        # 2 unplanned runs (0.75 x seeds 1,2), each with its sidecar.
        assert len(report.unplanned) == 4
        assert report.orphan_sidecars == [orphan]
        assert tmp in report.tmp_files
        for path in report.paths:
            assert path.exists()  # dry run touched nothing
        assert store.run_ids() == {r.run_id for r in wide.plan()}

    def test_apply_removes_exactly_the_debris(self, tmp_path):
        wide = tiny_spec(name="g", axes=WIDE_AXES)
        store = self.populate(wide, tmp_path)
        orphan, tmp = self.plant_debris(store)
        narrow = tiny_spec(name="g")
        narrow_before = report_bytes(narrow, tmp_path)

        report = campaign_gc(narrow, tmp_path, apply=True)
        assert report.applied
        for path in report.paths:
            assert not path.exists()
        assert not orphan.exists() and not tmp.exists()
        # Exactly the planned artifacts survive, reports unchanged.
        assert store.run_ids() == {r.run_id for r in narrow.plan()}
        assert report_bytes(narrow, tmp_path) == narrow_before
        # A clean store gc's to nothing.
        assert campaign_gc(narrow, tmp_path, apply=True).paths == []

    def test_resume_reruns_only_what_gc_removed(self, tmp_path):
        """gc with a narrowed spec prunes the dropped cells; resuming
        the wide spec re-executes exactly those cells and nothing
        else."""
        wide = tiny_spec(name="g", axes=WIDE_AXES)
        run_campaign(wide, root=tmp_path, jobs=1)  # real artifacts
        removed = campaign_gc(tiny_spec(name="g"), tmp_path, apply=True)
        removed_ids = {
            path.stem for path in removed.unplanned
            if not path.name.endswith(".series.json")
        }
        assert len(removed_ids) == 2

        status = campaign_status(wide, tmp_path)
        assert {run.run_id for run in status.missing} == removed_ids
        resumed = run_campaign(wide, root=tmp_path, jobs=1)
        assert resumed.executed == 2
        assert resumed.cached == 4
        assert resumed.complete

    def test_fresh_debris_is_spared(self, tmp_path):
        """A live writer's in-flight mkstemp file (and the sidecar it
        just wrote, summary pending) look exactly like crash debris —
        gc must not unlink them out from under the rename."""
        spec = tiny_spec(name="g")
        store = self.populate(spec, tmp_path)
        orphan, tmp = self.plant_debris(store, stale=False)

        report = campaign_gc(spec, tmp_path, apply=True)
        assert report.paths == []
        assert orphan.exists() and tmp.exists()
        # Explicitly aging the guard down reclaims them.
        aged = campaign_gc(
            spec, tmp_path, apply=True, min_debris_age_seconds=-1.0
        )
        assert len(aged.paths) == 2
        assert not orphan.exists() and not tmp.exists()

    def test_gc_without_store_raises(self, tmp_path):
        with pytest.raises(StoreError, match="no campaign store"):
            campaign_gc(tiny_spec(name="void"), tmp_path)
