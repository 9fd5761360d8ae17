"""Tests for repro.campaign.query over fabricated (simulation-free) stores."""

import json

import pytest

from repro.campaign.orchestrator import open_store
from repro.campaign.query import (
    aggregate_by_point,
    campaign_report,
    group_by_point,
    load_runs,
    report_rows,
    runs_where,
)
from repro.campaign.spec import CampaignSpec

from tests.campaign.conftest import fabricate_result, tiny_spec


@pytest.fixture
def populated(tmp_path) -> tuple[CampaignSpec, object]:
    """A fully fabricated two-axis-point, two-seed campaign store."""
    spec = tiny_spec(name="fab")
    store = open_store(spec, tmp_path).ensure()
    for planned in spec.plan():
        store.write_result(fabricate_result(planned.config), point=planned.point)
    return spec, tmp_path


class TestLoadRuns:
    def test_plan_order_and_completeness(self, populated):
        spec, root = populated
        runs = load_runs(spec, root)
        assert [run.run_id for run in runs] == [
            planned.run_id for planned in spec.plan()
        ]

    def test_where_filter(self, populated):
        spec, root = populated
        runs = load_runs(spec, root, where=lambda run: run.seed == 2)
        assert len(runs) == 2
        assert all(run.seed == 2 for run in runs)

    def test_missing_runs_skipped(self, populated):
        spec, root = populated
        store = open_store(spec, root)
        store.run_path(spec.plan()[0].run_id).unlink()
        assert len(load_runs(spec, root)) == 3

    def test_stale_artifacts_ignored(self, populated):
        spec, root = populated
        # An artifact the plan no longer mentions must not surface.
        stray = spec.plan()[0].config.with_overrides(seed=77)
        open_store(spec, root).write_result(fabricate_result(stray))
        assert len(load_runs(spec, root)) == 4

    def test_points_come_from_the_plan_not_the_artifact(self, tmp_path):
        """Artifacts written without axis metadata (older spec
        revisions) still aggregate by grid cell."""
        spec = tiny_spec(name="pointless")
        store = open_store(spec, tmp_path).ensure()
        for planned in spec.plan():
            # No point at all.
            store.write_result(fabricate_result(planned.config))
        runs = load_runs(spec, tmp_path)
        assert all(run.point.keys() == {"attack_fraction"} for run in runs)
        report = campaign_report(spec, tmp_path)
        assert len(report["points"]) == 2
        assert {p["point"]["attack_fraction"] for p in report["points"]} == {
            0.25, 0.5,
        }


class TestGroupingAndAggregation:
    def test_group_by_point_collapses_seeds(self, populated):
        spec, root = populated
        groups = group_by_point(load_runs(spec, root))
        assert len(groups) == 2
        for key, group in groups.items():
            assert dict(key).keys() == {"attack_fraction"}
            assert sorted(run.seed for run in group) == [1, 2]

    def test_aggregate_by_point_means(self, populated):
        spec, root = populated
        aggregated = aggregate_by_point(load_runs(spec, root))
        assert len(aggregated) == 2
        for _point, metrics in aggregated:
            # Seeds 1, 2 -> accuracy 0.91, 0.92 (fabricated).
            assert metrics["accuracy"].mean == pytest.approx(0.915)
            assert metrics["accuracy"].n == 2

    def test_list_valued_axis_groups_and_reports(self, tmp_path):
        """Axes over list-valued builder args (ingress_subset) must
        group and report, not crash on unhashable keys."""
        spec = tiny_spec(
            name="listy",
            axes=[{
                "field": "attack_args.ingress_subset",
                "values": (["ingress0"], ["ingress1"]),
            }],
        )
        store = open_store(spec, tmp_path).ensure()
        for planned in spec.plan():
            store.write_result(fabricate_result(planned.config), planned.point)
        runs = load_runs(spec, tmp_path)
        assert len(group_by_point(runs)) == 2
        report = campaign_report(spec, tmp_path)
        assert len(report["points"]) == 2


class TestReport:
    def test_report_shape(self, populated):
        spec, root = populated
        report = campaign_report(spec, root)
        assert report["campaign"] == "fab"
        assert report["planned"] == report["complete"] == 4
        assert len(report["points"]) == 2
        entry = report["points"][0]
        assert entry["seeds"] == [1, 2]
        assert set(entry["metrics"]) == {
            "accuracy", "traffic_reduction", "false_positive_rate",
            "false_negative_rate", "legit_drop_rate",
        }

    def test_report_rows_flatten(self, populated):
        spec, root = populated
        rows = report_rows(campaign_report(spec, root))
        assert rows[0][:2] == ["attack_fraction", "n_runs"]
        assert len(rows) == 3
        assert rows[1][0] == 0.25
        assert rows[2][0] == 0.5

    def test_report_is_deterministic(self, populated):
        spec, root = populated
        assert campaign_report(spec, root) == campaign_report(spec, root)

    def test_report_bytes_do_not_depend_on_series_length(
        self, populated, tmp_path
    ):
        """Same summaries, 512x the samples in every sidecar: the
        summary-only report is the same bytes."""
        spec, root = populated
        long_root = tmp_path / "long"
        store = open_store(spec, long_root).ensure()
        for planned in spec.plan():
            result = fabricate_result(planned.config)
            for column in ("times", "total_kbps", "attack_kbps", "legit_kbps"):
                setattr(
                    result.series, column,
                    getattr(result.series, column) * 512,
                )
            store.write_result(result, point=planned.point)
        assert len(store.read_run(spec.plan()[0].run_id).series.times) == 1024
        assert json.dumps(campaign_report(spec, long_root), sort_keys=True) \
            == json.dumps(campaign_report(spec, root), sort_keys=True)


class TestRunsWhere:
    def test_config_field_query(self, populated):
        spec, root = populated
        store = open_store(spec, root)
        assert len(runs_where(store, seed=1)) == 2
        assert len(runs_where(store, seed=1, attack_fraction=0.5)) == 1
        assert runs_where(store, seed=99) == []

    def test_summary_only_scan_skips_series(self, populated, monkeypatch):
        """runs_where(load_series=False) must never materialize a
        bandwidth series — it never even opens a sidecar."""
        from repro.campaign.store import CampaignStore

        spec, root = populated
        store = open_store(spec, root)

        def boom(self, run_path, run_id):
            raise AssertionError(f"sidecar opened for {run_id}")

        monkeypatch.setattr(CampaignStore, "_read_series_payload", boom)
        runs = runs_where(store, load_series=False, seed=2)
        assert len(runs) == 2
        assert all(run.series.times == [] for run in runs)


class TestCampaignFigures:
    def test_figures_from_store_without_simulation(
        self, populated, monkeypatch
    ):
        from repro.campaign.query import REPORT_METRICS, campaign_figures
        from repro.campaign.store import CampaignStore

        spec, root = populated

        def boom(self, run_path, run_id):
            raise AssertionError("figures must not read series sidecars")

        monkeypatch.setattr(CampaignStore, "_read_series_payload", boom)
        figures = campaign_figures(spec, root)
        # One numeric axis x the five headline metrics.
        assert [f.figure_id for f in figures] == [
            f"attack_fraction--{m}" for m in REPORT_METRICS
        ]
        accuracy = figures[0]
        assert accuracy.x_label == "attack_fraction"
        assert list(accuracy.series) == ["all runs"]
        # Seeds 1, 2 -> fabricated accuracy 0.91, 0.92: mean 0.915.
        assert accuracy.series["all runs"] == [
            (0.25, pytest.approx(0.915)), (0.5, pytest.approx(0.915)),
        ]

    def test_categorical_axes_become_series_not_x(self, tmp_path):
        from repro.campaign.query import campaign_figures

        spec = tiny_spec(
            name="mixed",
            axes=[
                {"field": "attack_fraction", "values": (0.25, 0.5)},
                {"field": "defense", "values": ("mafic", "proportional")},
            ],
        )
        store = open_store(spec, tmp_path).ensure()
        for planned in spec.plan():
            store.write_result(fabricate_result(planned.config), planned.point)
        figures = campaign_figures(spec, tmp_path)
        # Only the numeric axis makes figures; defense labels series.
        assert len(figures) == 5
        assert set(figures[0].series) == {
            "defense=mafic", "defense=proportional",
        }
        for points in figures[0].series.values():
            assert [x for x, _ in points] == [0.25, 0.5]

    def test_empty_store_yields_no_figures(self, tmp_path):
        from repro.campaign.query import campaign_figures

        spec = tiny_spec(name="empty")
        open_store(spec, tmp_path).ensure()
        assert campaign_figures(spec, tmp_path) == []

    def test_figures_deterministic_across_stores(self, populated, tmp_path):
        """Same artifacts -> identical figure payloads, independent of
        which root they live under (the regeneration analogue of report
        determinism)."""
        from repro.analysis.export import figure_to_dict
        from repro.campaign.query import campaign_figures

        spec, root = populated
        other_root = tmp_path / "other"
        store = open_store(spec, other_root).ensure()
        for planned in spec.plan():
            store.write_result(fabricate_result(planned.config), planned.point)
        a = [figure_to_dict(f) for f in campaign_figures(spec, root)]
        b = [figure_to_dict(f) for f in campaign_figures(spec, other_root)]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
