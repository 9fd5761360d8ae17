"""Tests for repro.experiments.validation."""

from repro.core.config import MaficConfig
from repro.experiments.config import DefenseKind, ExperimentConfig, TopologyKind
from repro.experiments.validation import Severity, validate_config


class TestDetectionFeasibility:
    def test_default_config_is_feasible(self):
        report = validate_config(ExperimentConfig())
        assert report.ok
        assert not report.has("detection-infeasible")

    def test_weak_attack_flagged_infeasible(self):
        # 100 kbps zombies against fast TCP: the fig3b failure mode.
        report = validate_config(ExperimentConfig(rate_bps=100e3))
        assert not report.ok
        assert report.has("detection-infeasible")

    def test_force_activation_silences_detection_findings(self):
        report = validate_config(
            ExperimentConfig(rate_bps=100e3, force_activation_at=1.25)
        )
        assert report.ok

    def test_undefended_run_not_flagged(self):
        report = validate_config(
            ExperimentConfig(rate_bps=100e3, defense=DefenseKind.NONE)
        )
        assert not report.has("detection-infeasible")

    def test_small_star_domain_flagged(self):
        # Fast TCP in a tiny star: the signaling-test failure mode.
        report = validate_config(
            ExperimentConfig(
                total_flows=10, n_routers=8, topology=TopologyKind.STAR
            )
        )
        assert report.has("detection-infeasible") or report.has(
            "detection-marginal"
        )


class TestTimelineChecks:
    def test_attack_during_warmup_flagged(self):
        report = validate_config(ExperimentConfig(attack_start=0.5))
        assert report.has("attack-during-warmup")

    def test_short_run_flagged(self):
        report = validate_config(
            ExperimentConfig(duration=1.8, attack_start=1.05)
        )
        assert report.has("short-active-period")

    def test_default_timeline_clean(self):
        report = validate_config(ExperimentConfig())
        assert not report.has("attack-during-warmup")
        assert not report.has("short-active-period")


class TestRttChecks:
    def test_tiny_probe_window_flagged(self):
        cfg = ExperimentConfig(mafic=MaficConfig(default_rtt=0.02))
        report = validate_config(cfg)
        assert report.has("probe-window-below-rtt")


class TestReportShape:
    def test_always_has_load_estimate(self):
        report = validate_config(ExperimentConfig())
        assert report.has("load-estimate")
        infos = [f for f in report if f.severity is Severity.INFO]
        assert infos

    def test_iterable_and_sized(self):
        report = validate_config(ExperimentConfig())
        assert len(report) == len(list(report))
