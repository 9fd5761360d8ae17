"""Tests for repro.analysis.defense_events and AtrDrilldown's load view."""

import pytest

from repro.analysis.defense_events import (
    drop_reason_timeline,
    latency_stats,
    probe_to_verdict_latencies,
)
from repro.obs.aggregators import AtrDrilldown
from repro.obs.events import (
    DefenseDecision,
    DefenseProbe,
    DefensePushback,
    Verdict,
    VictimArrival,
)


def _drop(time, reason, flow, atr="ingress0"):
    return DefenseDecision(time, "drop", reason, "attack", flow, atr)


def synthetic_events():
    return [
        DefensePushback(1.0, True, "ingress0"),
        DefenseProbe(1.1, 7, "ingress0"),
        _drop(1.1, "probe", 7),
        VictimArrival(1.15, 1000, False),  # other kinds are skipped
        DefenseProbe(1.2, 9, "ingress0"),
        _drop(1.2, "probe", 9),
        Verdict(1.5, 7, "nice", "tcp_legit", "ingress0"),
        Verdict(1.6, 9, "cut", "attack", "ingress0"),
        _drop(2.0, "pdt", 9),
        _drop(2.3, "pdt", 9),
        DefensePushback(3.0, False, "ingress0"),
    ]


class TestProbeLatencies:
    def test_pairs_probe_with_verdict(self):
        latencies = probe_to_verdict_latencies(synthetic_events())
        by_flow = {item.flow: item for item in latencies}
        assert by_flow[7].latency == pytest.approx(0.4)
        assert by_flow[7].verdict == "nice"
        assert by_flow[9].latency == pytest.approx(0.4)
        assert by_flow[9].verdict == "cut"

    def test_verdict_without_probe_ignored(self):
        events = [Verdict(1.0, 1, "illegal_source", "attack", "a")]
        assert probe_to_verdict_latencies(events) == []

    def test_only_first_verdict_counts(self):
        events = [
            DefenseProbe(1.0, 1, "a"),
            Verdict(1.5, 1, "nice", "tcp_legit", "a"),
            DefenseProbe(2.0, 1, "a"),  # re-probed after renotice
            Verdict(2.5, 1, "cut", "tcp_legit", "a"),
        ]
        latencies = probe_to_verdict_latencies(events)
        assert len(latencies) == 1
        assert latencies[0].verdict == "nice"
        assert latencies[0].latency == pytest.approx(0.5)

    def test_latency_runs_from_the_first_probe(self):
        """A flow evicted from the SFT before its verdict is probed
        again; its latency still counts from the first probe."""
        events = [
            DefenseProbe(1.0, 1, "a"),
            DefenseProbe(1.2, 1, "a"),
            Verdict(1.5, 1, "cut", "attack", "a"),
        ]
        (item,) = probe_to_verdict_latencies(events)
        assert (item.probed_at, item.verdict_at) == (1.0, 1.5)

    def test_folds_a_one_pass_iterator(self):
        """A recording's ``events()`` is a generator: one pass suffices."""
        latencies = probe_to_verdict_latencies(iter(synthetic_events()))
        assert [item.flow for item in latencies] == [7, 9]

    def test_stats_fold(self):
        stats = latency_stats(probe_to_verdict_latencies(synthetic_events()))
        assert stats.count == 2
        assert stats.mean == pytest.approx(0.4)

    def test_real_run_latencies_near_probe_window(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiment
        from repro.obs import BufferedSink

        sink = BufferedSink()
        run = run_experiment(
            ExperimentConfig(total_flows=10, n_routers=10, duration=3.0,
                             seed=93),
            bus=sink,
        )
        latencies = probe_to_verdict_latencies(sink.events)
        assert latencies
        window = run.config.mafic.probe_window(None)
        for item in latencies:
            assert 0 < item.latency <= 2.5 * window

    def test_a_recording_folds_like_the_live_stream(self, tmp_path):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiment
        from repro.obs import BufferedSink, EventBus
        from repro.obs.recorder import JsonlSink, open_recording

        path = tmp_path / "run.jsonl.gz"
        bus, sink = EventBus(), BufferedSink()
        bus.subscribe(sink)
        recorder = bus.subscribe(JsonlSink(str(path)))
        run_experiment(
            ExperimentConfig(total_flows=10, n_routers=8, duration=2.0, seed=3),
            bus=bus,
        )
        recorder.close()
        recording = open_recording(str(path))
        assert probe_to_verdict_latencies(recording.events()) == (
            probe_to_verdict_latencies(sink.events)
        )
        assert drop_reason_timeline(recording.events()) == (
            drop_reason_timeline(sink.events)
        )
        assert recording.unknown_kinds == 0


class TestAtrActivity:
    def test_summary_fields(self):
        drilldown = AtrDrilldown()
        for event in synthetic_events():
            drilldown.emit(event)
        (row,) = drilldown.snapshot()["atrs"]
        assert row["atr"] == "ingress0"
        assert row["activated_at"] == 1.0
        assert row["deactivated_at"] == 3.0
        assert row["probes"] == 2
        assert row["verdicts"] == {"cut": 1, "nice": 1}
        assert row["drops_by_reason"] == {"pdt": 2, "probe": 2}

    def test_first_start_and_last_stop(self):
        drilldown = AtrDrilldown()
        for time, active in ((1.0, True), (2.0, False), (3.0, True), (4.0, False)):
            drilldown.emit(DefensePushback(time, active, "a"))
        (row,) = drilldown.snapshot()["atrs"]
        assert (row["activated_at"], row["deactivated_at"]) == (1.0, 4.0)

    def test_no_events_no_rows(self):
        assert AtrDrilldown().snapshot()["atrs"] == []


class TestDropTimeline:
    def test_bins_counts_by_reason(self):
        timeline = drop_reason_timeline(synthetic_events(), bin_width=1.0)
        assert timeline["probe"] == [(1.5, 2)]
        assert timeline["pdt"] == [(2.5, 2)]

    def test_passes_are_not_drops(self):
        events = [DefenseDecision(0.1, "pass", "", "tcp_legit", 1, "a")]
        assert drop_reason_timeline(events) == {}

    def test_bad_bin_width(self):
        with pytest.raises(ValueError):
            drop_reason_timeline([], bin_width=0)
