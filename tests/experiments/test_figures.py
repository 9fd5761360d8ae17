"""Tests for repro.experiments.figures: the planned grids, and two tiny
real runs (one axis figure, and fig4b's time series)."""

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.campaign.query import REPORT_METRICS
from repro.campaign.spec import CampaignSpec
from repro.experiments import figures
from repro.experiments.figures import FIGURES, FigureResult, _scaled, run_figure

#: SHA-256 over every figure's ordered (series label, x, config_hash)
#: cells at scales 1.0 and 0.01.  Recorded from the per-figure loop
#: functions these table rows replaced (with ``run_experiment`` patched to
#: capture each config), so it pins the grids, their order and their x
#: display to what those functions ran.
GRID_DIGEST = "da0cc7de494526a10c7229c30b69ae2327b6fb6a43ddded34845da46d5d7481e"

PD = {"Pd=90%", "Pd=80%", "Pd=70%"}
VT = {"Vt=30", "Vt=70", "Vt=100"}
TCP = {"TCP=95%", "TCP=75%", "TCP=55%", "TCP=35%"}
VT_ENDS, GAMMA_ENDS, N_ENDS = [10, 110], [15.0, 95.0], [20, 160]

#: What each figure plans at scale 0.01: series labels, x values, metric.
SMALL = {
    "fig3a": (PD, VT_ENDS, "accuracy"),
    "fig3b": ({"R=100k", "R=500k", "R=1M"}, VT_ENDS, "accuracy"),
    "fig4a": (PD, VT_ENDS, "traffic_reduction"),
    "fig4b": ({"Vt=10", "Vt=30", "Vt=50"}, [None], None),
    "fig5a": (PD, VT_ENDS, "false_positive_rate"),
    "fig5b": (VT, GAMMA_ENDS, "false_positive_rate"),
    "fig5c": (TCP, N_ENDS, "false_positive_rate"),
    "fig6a": (PD, VT_ENDS, "false_negative_rate"),
    "fig6b": (VT, GAMMA_ENDS, "false_negative_rate"),
    "fig6c": (TCP, N_ENDS, "false_negative_rate"),
    "fig7": (PD, VT_ENDS, "legit_drop_rate"),
}


class TestScaledAxis:
    def test_full_scale_keeps_all(self):
        assert _scaled([1, 2, 3, 4], 1.0) == [1, 2, 3, 4]

    def test_half_scale_keeps_ends(self):
        thinned = _scaled([1, 2, 3, 4, 5, 6], 0.4)
        assert thinned[0] == 1
        assert thinned[-1] == 6
        assert len(thinned) < 6

    def test_minimum_two_points(self):
        assert len(_scaled([1, 2, 3, 4, 5, 6], 0.01)) >= 2

    def test_short_lists_untouched(self):
        assert _scaled([1, 2], 0.1) == [1, 2]


class TestFigureResult:
    def test_add_and_read_points(self):
        fig = FigureResult("figX", "t", "x", "y")
        fig.add_point("s", 1.0, 2.0)
        fig.add_point("s", 2.0, 4.0)
        assert fig.series["s"] == [(1.0, 2.0), (2.0, 4.0)]
        assert fig.ys("s") == [2.0, 4.0]


class TestFigureRuns:
    """Which runs a figure keeps, with ``run_experiment`` stubbed out."""

    @pytest.fixture
    def stub_runs(self, monkeypatch):
        made = []

        def stub(config, series_bin_width=None):
            made.append(SimpleNamespace(
                summary=SimpleNamespace(**dict.fromkeys(REPORT_METRICS, 0.5)),
                series=SimpleNamespace(times=[0.0, 0.05], total_kbps=[1.0, 2.0]),
            ))
            return made[-1]

        monkeypatch.setattr(figures, "run_experiment", stub)
        return made

    def test_an_axis_figure_keeps_no_runs(self, stub_runs):
        fig = run_figure("fig3a", scale=0.01)
        assert len(stub_runs) == 6
        assert fig.runs == {}
        assert all(fig.ys(name) == [50.0, 50.0] for name in PD)

    def test_fig4b_keeps_one_run_per_series(self, stub_runs):
        fig = run_figure("fig4b", scale=0.01)
        assert fig.runs == {
            label: [run] for label, run in zip(("Vt=10", "Vt=30", "Vt=50"), stub_runs)
        }


class TestFigurePlans:
    """The figure grids, from their plans alone (no simulation)."""

    def test_all_figures_registered(self):
        assert set(FIGURES) == set(SMALL)

    def test_grids_match_the_pinned_digest(self):
        cells = []
        for name, figure in FIGURES.items():
            for scale in (1.0, 0.01):
                spec = figure.spec(scale)
                reloaded = CampaignSpec.from_dict(spec.to_dict())
                assert [run.run_id for run in reloaded.plan()] == [
                    run.run_id for run in spec.plan()
                ]
                cells += [
                    [name, scale, label, x, planned.run_id]
                    for label, x, planned in figure.cells(scale)
                ]
        assert len(cells) == 248
        text = json.dumps(cells, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == GRID_DIGEST

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_small_scale_plan(self, name):
        labels, xs, metric = SMALL[name]
        figure = FIGURES[name]
        assert figure.metric == metric
        assert metric is None or metric in REPORT_METRICS
        by_label: dict = {}
        for label, x, planned in figure.cells(0.01):
            by_label.setdefault(label, []).append(x)
            assert planned.seed == figure.seed
        assert set(by_label) == labels
        assert all(row == xs for row in by_label.values())


@pytest.mark.slow
class TestFigureSmoke:
    """Tiny real runs: one axis figure, and fig4b's time series."""

    def test_fig3a_smoke(self):
        fig = run_figure("fig3a", scale=0.01)
        assert set(fig.series) == PD
        for name in fig.series:
            assert [x for x, _ in fig.series[name]] == VT_ENDS
            assert all(0 <= y <= 100 for y in fig.ys(name))

    def test_fig4b_smoke(self):
        fig = run_figure("fig4b", scale=0.01)
        assert set(fig.series) == {"Vt=10", "Vt=30", "Vt=50"}
        assert all(len(points) > 10 for points in fig.series.values())
        assert all(len(runs) == 1 for runs in fig.runs.values())
