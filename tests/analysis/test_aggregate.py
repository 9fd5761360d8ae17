"""Tests for repro.analysis.aggregate."""

import json
from pathlib import Path

import pytest

from repro.analysis.aggregate import _t_critical, aggregate_runs, run_seeds
from repro.experiments.config import ExperimentConfig


def tiny_config():
    return ExperimentConfig(total_flows=8, n_routers=8, duration=2.8, seed=0)


@pytest.fixture(scope="module")
def three_runs():
    return run_seeds(tiny_config(), seeds=[1, 2, 3])


class TestRunSeeds:
    def test_one_run_per_seed(self, three_runs):
        assert len(three_runs) == 3
        assert [r.config.seed for r in three_runs] == [1, 2, 3]

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            run_seeds(tiny_config(), seeds=[])


class TestAggregateRuns:
    def test_all_metrics_present(self, three_runs):
        agg = aggregate_runs(three_runs)
        assert set(agg.metrics) == {
            "accuracy",
            "traffic_reduction",
            "false_positive_rate",
            "false_negative_rate",
            "legit_drop_rate",
        }
        assert agg.n_runs == 3

    def test_mean_matches_manual(self, three_runs):
        agg = aggregate_runs(three_runs)
        manual = sum(r.summary.accuracy for r in three_runs) / 3
        assert agg["accuracy"].mean == pytest.approx(manual)

    def test_ci_brackets_mean(self, three_runs):
        agg = aggregate_runs(three_runs)
        stats = agg["accuracy"]
        assert stats.low <= stats.mean <= stats.high

    def test_wider_confidence_wider_interval(self, three_runs):
        ci95 = aggregate_runs(three_runs, confidence=0.95)["accuracy"]
        ci99 = aggregate_runs(three_runs, confidence=0.99)["accuracy"]
        assert ci99.ci_halfwidth >= ci95.ci_halfwidth

    def test_single_run_zero_halfwidth(self, three_runs):
        agg = aggregate_runs(three_runs[:1])
        assert agg["accuracy"].ci_halfwidth == 0.0
        assert agg["accuracy"].n == 1

    def test_table_rendering(self, three_runs):
        table = aggregate_runs(three_runs).as_percent_table()
        assert "accuracy" in table
        assert "n=3" in table

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])

    def test_bad_confidence_rejected(self, three_runs):
        with pytest.raises(ValueError):
            aggregate_runs(three_runs, confidence=1.5)


class TestTCritical:
    """The self-contained t quantile against a committed reference table
    (df 1..200 x {0.90, 0.95, 0.99}), so every host reports the same CI."""

    REFERENCE = json.loads(
        (Path(__file__).parent / "t_critical_reference.json").read_text()
    )

    def test_matches_reference_table(self):
        confidences = self.REFERENCE["confidence"]
        assert len(self.REFERENCE["by_df"]) == 200
        for df, row in self.REFERENCE["by_df"].items():
            for confidence, expected in zip(confidences, row):
                assert _t_critical(int(df), confidence) == pytest.approx(
                    expected, rel=1e-9, abs=0.0
                ), (df, confidence)

    def test_two_seeds_is_student_t_not_z(self):
        # The value the old no-scipy fallback got wrong by 6.5x.
        assert _t_critical(1, 0.95) == pytest.approx(12.706204736174694, rel=1e-12)

    def test_decreases_toward_normal_quantile(self):
        values = [_t_critical(df, 0.95) for df in (1, 2, 5, 30, 200, 5000)]
        assert values == sorted(values, reverse=True)
        assert values[-1] == pytest.approx(1.959964, rel=1e-3)
