"""Tests for repro.counting.pushback."""

import numpy as np
import pytest

from repro.counting.pushback import (
    PushbackCoordinator,
    PushbackPolicyConfig,
)
from repro.sim.monitor import MatrixSnapshot


def snap(time, egress, shares):
    """Build a snapshot where 'victim' receives ``egress`` packets and each
    named ingress contributes ``shares[name]`` of them."""
    sources = sorted(shares)
    matrix = np.array([[egress * shares[s]] for s in sources])
    return MatrixSnapshot(
        time=time,
        sources=sources,
        destinations=["victim"],
        matrix=matrix,
        ingress_totals={s: egress * shares[s] for s in sources},
        egress_totals={"victim": egress},
    )


def make_coordinator(**overrides):
    defaults = dict(
        overload_factor=2.0,
        share_threshold=0.10,
        baseline_rate=100.0,
        min_absolute=10.0,
        hysteresis_epochs=2,
        warmup_epochs=2,
        calm_band=1.5,
    )
    defaults.update(overrides)
    requests = []
    coord = PushbackCoordinator(
        victim_router="victim",
        config=PushbackPolicyConfig(**defaults),
        on_request=requests.append,
    )
    return coord, requests


class TestWarmup:
    def test_no_alarm_during_warmup(self):
        coord, requests = make_coordinator(warmup_epochs=3)
        for t in (1.0, 2.0, 3.0):
            coord.on_snapshot(snap(t, 10_000, {"in0": 1.0}))
        assert requests == []
        assert not coord.active

    def test_baseline_learned_from_first_epoch(self):
        coord, _ = make_coordinator(warmup_epochs=1)
        coord.on_snapshot(snap(1.0, 200, {"in0": 1.0}))
        assert coord.baseline == pytest.approx(200)


class TestDetection:
    def _warmed(self, calm=100.0):
        coord, requests = make_coordinator()
        coord.on_snapshot(snap(1.0, calm, {"in0": 0.5, "in1": 0.5}))
        coord.on_snapshot(snap(2.0, calm, {"in0": 0.5, "in1": 0.5}))
        return coord, requests

    def test_overload_triggers_start_requests(self):
        coord, requests = self._warmed()
        coord.on_snapshot(snap(3.0, 1000, {"in0": 0.8, "in1": 0.2}))
        starts = [r for r in requests if r.action == "start"]
        assert {r.atr_name for r in starts} == {"in0", "in1"}
        assert coord.active

    def test_share_threshold_excludes_minor_contributors(self):
        coord, requests = self._warmed()
        coord.on_snapshot(snap(3.0, 1000, {"in0": 0.95, "in1": 0.05}))
        starts = {r.atr_name for r in requests if r.action == "start"}
        assert starts == {"in0"}

    def test_min_absolute_guards_sketch_noise(self):
        coord, requests = make_coordinator(min_absolute=500.0)
        coord.on_snapshot(snap(1.0, 100, {"in0": 1.0}))
        coord.on_snapshot(snap(2.0, 100, {"in0": 1.0}))
        coord.on_snapshot(snap(3.0, 1000, {"in0": 0.3, "in1": 0.7}))
        starts = {r.atr_name for r in requests if r.action == "start"}
        assert starts == {"in1"}  # 300 < 500 <= 700

    def test_refresh_while_attack_persists(self):
        coord, requests = self._warmed()
        coord.on_snapshot(snap(3.0, 1000, {"in0": 1.0, "in1": 0.0}))
        coord.on_snapshot(snap(4.0, 1000, {"in0": 1.0, "in1": 0.0}))
        actions = [r.action for r in requests if r.atr_name == "in0"]
        assert actions == ["start", "refresh"]

    def test_new_atr_added_mid_attack(self):
        coord, requests = self._warmed()
        coord.on_snapshot(snap(3.0, 1000, {"in0": 1.0, "in1": 0.0}))
        coord.on_snapshot(snap(4.0, 1000, {"in0": 0.5, "in1": 0.5}))
        starts = [r for r in requests if r.action == "start"]
        assert {r.atr_name for r in starts} == {"in0", "in1"}

    def test_report_records_shares(self):
        coord, _ = self._warmed()
        coord.on_snapshot(snap(3.0, 1000, {"in0": 0.75, "in1": 0.25}))
        report = coord.latest_report
        assert report.shares["in0"] == pytest.approx(0.75)
        assert report.egress_estimate == 1000


class TestStandDown:
    def test_stop_after_hysteresis(self):
        coord, requests = make_coordinator(hysteresis_epochs=2)
        coord.on_snapshot(snap(1.0, 100, {"in0": 1.0}))
        coord.on_snapshot(snap(2.0, 100, {"in0": 1.0}))
        coord.on_snapshot(snap(3.0, 1000, {"in0": 1.0}))
        assert coord.active
        coord.on_snapshot(snap(4.0, 100, {"in0": 1.0}))
        assert coord.active  # one calm epoch: not yet
        coord.on_snapshot(snap(5.0, 100, {"in0": 1.0}))
        assert not coord.active
        stops = [r for r in requests if r.action == "stop"]
        assert [r.atr_name for r in stops] == ["in0"]

    def test_attack_resumption_resets_hysteresis(self):
        coord, _ = make_coordinator(hysteresis_epochs=2)
        coord.on_snapshot(snap(1.0, 100, {"in0": 1.0}))
        coord.on_snapshot(snap(2.0, 100, {"in0": 1.0}))
        coord.on_snapshot(snap(3.0, 1000, {"in0": 1.0}))
        coord.on_snapshot(snap(4.0, 100, {"in0": 1.0}))
        coord.on_snapshot(snap(5.0, 1000, {"in0": 1.0}))  # resumes
        coord.on_snapshot(snap(6.0, 100, {"in0": 1.0}))
        assert coord.active  # hysteresis restarted


class TestBaselineGuard:
    def test_calm_band_blocks_poisoning(self):
        coord, _ = make_coordinator(calm_band=1.2, overload_factor=2.0)
        coord.on_snapshot(snap(1.0, 100, {"in0": 1.0}))
        coord.on_snapshot(snap(2.0, 100, {"in0": 1.0}))
        baseline = coord.baseline
        # 1.5x the baseline: above the calm band, below the alarm.
        coord.on_snapshot(snap(3.0, 150, {"in0": 1.0}))
        assert coord.baseline == baseline  # not absorbed

    def test_calm_updates_inside_band(self):
        coord, _ = make_coordinator(calm_band=1.4)
        coord.on_snapshot(snap(1.0, 100, {"in0": 1.0}))
        coord.on_snapshot(snap(2.0, 100, {"in0": 1.0}))
        coord.on_snapshot(snap(3.0, 110, {"in0": 1.0}))
        assert coord.baseline > 100


class TestConfigValidation:
    def test_calm_band_must_undershoot_overload(self):
        with pytest.raises(ValueError):
            PushbackPolicyConfig(overload_factor=1.5, calm_band=1.5)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            PushbackPolicyConfig(warmup_epochs=-1)

    def test_bad_hysteresis_rejected(self):
        with pytest.raises(ValueError):
            PushbackPolicyConfig(hysteresis_epochs=0)

    def test_missing_victim_column_ignored(self):
        coord, requests = make_coordinator(warmup_epochs=0)
        other = MatrixSnapshot(
            time=1.0, sources=["in0"], destinations=["other"],
            matrix=np.array([[5.0]]), ingress_totals={"in0": 5.0},
            egress_totals={"other": 5.0},
        )
        coord.on_snapshot(other)
        assert requests == []
