"""``campaign diff``: cell-by-cell store comparison, CI-usable exits.

This is the checker behind the chaos harness's convergence claim: a
resumed store must diff *identical* against a serial one.  Tests here
fabricate the divergences (missing cells, perturbed metrics) and
assert they are reported — and that byte-irrelevant noise (timing,
point provenance, compression) is not.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.diff import diff_stores
from repro.campaign.orchestrator import open_store
from repro.campaign.store import CampaignStore, StoreError
from repro.experiments.cli import main

from tests.campaign.conftest import fabricate_result


def _fill(spec, root, skip=(), perturb=None) -> CampaignStore:
    store = open_store(spec, root).ensure()
    store.pin_series_bin_width(0.05)
    store.write_manifest(spec.to_dict(), series_bin_width=0.05)
    for planned in spec.plan():
        if planned.run_id in skip:
            continue
        result = fabricate_result(planned.config)
        store.write_result(
            result, point=planned.point, series_bin_width=0.05
        )
        if perturb and planned.run_id in perturb:
            path = store.run_path(planned.run_id)
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload["summary"]["accuracy"] += perturb[planned.run_id]
            path.write_text(json.dumps(payload), encoding="utf-8")
    return store


class TestDiffStores:
    def test_identical_stores(self, tmp_path, spec):
        a = _fill(spec, tmp_path / "a")
        b = _fill(spec, tmp_path / "b")
        result = diff_stores(a.directory, b.directory)
        assert result.identical
        assert result.compared == len(spec.plan())
        assert result.missing_in_a == result.missing_in_b == []
        assert result.differing == []

    def test_missing_and_extra_cells(self, tmp_path, spec):
        gone = spec.plan()[0].run_id
        a = _fill(spec, tmp_path / "a")
        b = _fill(spec, tmp_path / "b", skip={gone})
        result = diff_stores(a.directory, b.directory)
        assert result.missing_in_b == [gone]
        assert result.missing_in_a == []
        assert not result.identical
        flipped = diff_stores(b.directory, a.directory)
        assert flipped.missing_in_a == [gone]

    def test_metric_delta_is_reported_per_field(self, tmp_path, spec):
        victim = spec.plan()[0].run_id
        a = _fill(spec, tmp_path / "a")
        b = _fill(spec, tmp_path / "b", perturb={victim: 1e-3})
        result = diff_stores(a.directory, b.directory)
        assert not result.identical
        assert [(d.run_id, d.field) for d in result.differing] \
            == [(victim, "summary.accuracy")]
        delta = result.differing[0]
        assert delta.b == pytest.approx(delta.a + 1e-3)

    def test_tolerance_absorbs_small_numeric_drift(self, tmp_path, spec):
        victim = spec.plan()[0].run_id
        a = _fill(spec, tmp_path / "a")
        b = _fill(spec, tmp_path / "b", perturb={victim: 1e-9})
        assert not diff_stores(a.directory, b.directory).identical
        assert diff_stores(
            a.directory, b.directory, tolerance=1e-6
        ).identical

    def test_missing_store_raises(self, tmp_path, spec):
        a = _fill(spec, tmp_path / "a")
        with pytest.raises(StoreError, match="no campaign store"):
            diff_stores(a.directory, tmp_path / "nope")


class TestCli:
    def test_exit_zero_on_identical(self, tmp_path, spec, capsys):
        a = _fill(spec, tmp_path / "a")
        b = _fill(spec, tmp_path / "b")
        code = main(
            ["campaign", "diff", str(a.directory), str(b.directory)]
        )
        assert code == 0
        assert "identical" in capsys.readouterr().out

    def test_exit_nonzero_on_divergence(self, tmp_path, spec, capsys):
        victim = spec.plan()[0].run_id
        a = _fill(spec, tmp_path / "a")
        b = _fill(spec, tmp_path / "b", perturb={victim: 0.5})
        code = main(
            ["campaign", "diff", str(a.directory), str(b.directory)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "summary.accuracy" in out
        assert victim in out

    def test_exit_nonzero_on_missing_cell(self, tmp_path, spec, capsys):
        gone = spec.plan()[0].run_id
        a = _fill(spec, tmp_path / "a")
        b = _fill(spec, tmp_path / "b", skip={gone})
        code = main(
            ["campaign", "diff", str(a.directory), str(b.directory)]
        )
        assert code == 1
        assert gone in capsys.readouterr().out

    def test_tolerance_flag(self, tmp_path, spec):
        victim = spec.plan()[0].run_id
        a = _fill(spec, tmp_path / "a")
        b = _fill(spec, tmp_path / "b", perturb={victim: 1e-9})
        assert main(
            ["campaign", "diff", str(a.directory), str(b.directory),
             "--tolerance", "1e-6"]
        ) == 0

    def test_missing_store_is_a_usage_error(self, tmp_path, spec, capsys):
        a = _fill(spec, tmp_path / "a")
        code = main(
            ["campaign", "diff", str(a.directory), str(tmp_path / "nope")]
        )
        assert code == 2
        assert "no campaign store" in capsys.readouterr().err
