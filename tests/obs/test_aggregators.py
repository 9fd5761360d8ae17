"""Streaming aggregation: bit-exact series, bounded windows, exposition."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.timeseries import StreamingBandwidthSeries
from repro.obs import (
    DefenseActivation,
    DefenseDecision,
    EngineStats,
    LinkDrop,
    LiveMetrics,
    MonitorSnapshot,
    Verdict,
    VictimArrival,
)
from repro.obs.aggregators import AtrDrilldown, FlowDrilldown
from repro.obs.events import RunStarted
from repro.obs.exposition import render_prometheus
from tests.metrics.victim_reference import series_from_arrivals


def _drop(time, flow, reason="probe", truth="attack", atr="ingress0"):
    return DefenseDecision(time=time, action="drop", reason=reason,
                           truth=truth, flow=flow, atr=atr)


def _verdict(time, label, verdict, truth="attack", atr="ingress0"):
    return Verdict(time=time, label=label, verdict=verdict, truth=truth,
                   atr=atr)


class TestStreamingBandwidthSeries:
    """The streaming builder's contract: **bit-exact** vs bucketing the
    whole arrival list after the run (the reference fold)."""

    def _random_arrivals(self, seed, n, end):
        rng = random.Random(seed)
        return [
            (rng.uniform(-0.1, end + 0.1), rng.randint(40, 1500),
             rng.random() < 0.3)
            for _ in range(n)
        ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_from_arrivals_bit_exactly(self, seed):
        end, width = 5.0, 0.05
        arrivals = self._random_arrivals(seed, 2000, end)
        streaming = StreamingBandwidthSeries(
            start=0.0, end=end, bin_width=width
        )
        # In uneven pieces: where the stream is cut must not matter.
        kept = [(t, s, a) for t, s, a in arrivals if 0.0 <= t <= end]
        for cut in range(0, len(kept), 97):
            streaming.observe_many(kept[cut:cut + 97])
        batch = series_from_arrivals(kept, start=0.0, end=end, bin_width=width)
        got = streaming.finish()
        assert [x.hex() for x in got.total_kbps] == [
            x.hex() for x in batch.total_kbps
        ]
        assert [x.hex() for x in got.attack_kbps] == [
            x.hex() for x in batch.attack_kbps
        ]
        assert [x.hex() for x in got.times] == [x.hex() for x in batch.times]

    def test_interval_edges_match_from_arrivals(self):
        """Same half-open [start, end): t == end is excluded by both
        paths, t just inside clamps into the final bin."""
        edge_cases = [(0.0, 1000, False), (0.999999, 600, True),
                      (1.0, 400, False), (-0.01, 300, False)]
        streaming = StreamingBandwidthSeries(start=0.0, end=1.0, bin_width=0.1)
        streaming.observe_many(edge_cases)
        batch = series_from_arrivals(
            edge_cases, start=0.0, end=1.0, bin_width=0.1
        )
        got = streaming.finish()
        assert got.total_kbps == batch.total_kbps
        assert got.attack_kbps == batch.attack_kbps
        assert streaming.observed == 2  # t == end and t < start ignored

    def test_memory_is_bins_not_arrivals(self):
        streaming = StreamingBandwidthSeries(start=0.0, end=1.0, bin_width=0.1)
        streaming.observe_many(
            ((i % 100) / 100.0, 500, False) for i in range(10_000)
        )
        # The aggregator holds only its bin arrays — no per-arrival state.
        assert len(streaming._total) == streaming.n_bins == 10


def _feed_scenario(live: LiveMetrics) -> None:
    live.emit(VictimArrival(time=0.1, size=1000, is_attack=False))
    live.emit(VictimArrival(time=0.4, size=500, is_attack=True))
    live.emit(DefenseDecision(time=0.5, action="drop", reason="pdt",
                              truth="attack"))
    live.emit(DefenseDecision(time=0.5, action="pass", reason="",
                              truth="wellbehaved"))
    live.emit(Verdict(time=0.6, label=3, verdict="cut", truth="attack"))
    live.emit(DefenseActivation(time=0.6))
    live.emit(MonitorSnapshot(time=0.75, epoch=3, n_sources=4,
                              n_destinations=1, ingress_total=10.0,
                              egress_total=9.0))
    live.emit(EngineStats(time=0.75, backend="heap", events_executed=1234,
                          pending=56, peak_occupancy=80))
    live.emit(LinkDrop(time=0.8, link="uplink:r1", reason="hook"))


class TestLiveMetrics:
    def test_totals_and_confusion(self):
        live = LiveMetrics(window=1.0)
        _feed_scenario(live)
        snap = live.snapshot()
        assert snap["arrivals_total"] == 2
        assert snap["attack_arrivals_total"] == 1
        assert snap["arrival_bytes_total"] == 1500
        assert snap["examined_total"] == 2
        assert snap["dropped_total"] == 1
        assert snap["drop_ratio"] == 0.5
        assert snap["drops_by_reason"] == {"pdt": 1}
        assert snap["verdict_confusion"] == {"attack:cut": 1}
        assert snap["activation_time"] == 0.6
        assert snap["epochs"] == 3
        assert snap["events_executed"] == 1234
        assert snap["queue_backend"] == "heap"
        assert snap["link_drops"] == {"uplink:r1:hook": 1}

    def test_window_prunes_as_time_advances(self):
        live = LiveMetrics(window=1.0)
        live.emit(VictimArrival(time=0.0, size=1000, is_attack=False))
        assert live.snapshot()["arrival_kbps"] == 1000 * 8.0 / 1e3 / 1.0
        # An event two sim-seconds later evicts the first from the window
        # but not from the totals.
        live.emit(VictimArrival(time=2.0, size=500, is_attack=True))
        snap = live.snapshot()
        assert snap["arrivals_total"] == 2
        assert snap["arrival_kbps"] == 500 * 8.0 / 1e3 / 1.0
        assert snap["attack_kbps"] == snap["arrival_kbps"]
        assert snap["legit_kbps"] == 0.0

    def test_windowed_rates_use_window_not_elapsed(self):
        """Early-run rates ramp from zero (Prometheus rate() style)."""
        live = LiveMetrics(window=2.0)
        live.emit(Verdict(time=0.1, label=1, verdict="nice", truth="legit"))
        assert live.snapshot()["verdicts_per_second"] == 0.5

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            LiveMetrics(window=0.0)

    @pytest.mark.parametrize("window", [math.nan, math.inf])
    def test_non_finite_window_is_rejected_by_name(self, window):
        """A NaN window never prunes (every entry stays, every rate reads
        NaN) and an infinite one never expires anything."""
        with pytest.raises(ValueError, match="window"):
            LiveMetrics(window=window)

    def test_snapshot_of_fresh_instance_is_all_zero(self):
        snap = LiveMetrics().snapshot()
        assert snap["arrivals_total"] == 0
        assert snap["drop_ratio"] == 0.0
        assert snap["activation_time"] is None
        assert not math.isnan(snap["arrival_kbps"])

    def test_engine_build_folds_from_run_started(self):
        live = LiveMetrics()
        assert live.snapshot()["engine_build"] == ""
        live.emit(RunStarted(time=0.0, run_id="x", seed=1, scenario="s",
                             duration=1.0, engine="compiled"))
        assert live.snapshot()["engine_build"] == "compiled"
        # An engine-less run.started (older recording) keeps the value.
        live.emit(RunStarted(time=0.0, run_id="y", seed=2, scenario="s",
                             duration=1.0))
        assert live.snapshot()["engine_build"] == "compiled"

    def test_entry_exactly_one_window_old_survives_pruning(self):
        """Cutoff is strict (`< now - window`): an arrival exactly at
        the epoch boundary still counts toward the windowed rate."""
        live = LiveMetrics(window=1.0)
        live.emit(VictimArrival(time=1.0, size=1000, is_attack=False))
        live.emit(VictimArrival(time=2.0, size=500, is_attack=False))
        # cutoff = 2.0 - 1.0 = 1.0; the t=1.0 arrival is not < cutoff.
        assert live.snapshot()["arrival_kbps"] == 1500 * 8.0 / 1e3 / 1.0
        live.emit(VictimArrival(time=2.0 + 1e-9, size=0, is_attack=False))
        # The slightest advance past the boundary evicts it.
        assert live.snapshot()["arrival_kbps"] == 500 * 8.0 / 1e3 / 1.0

    def test_non_window_events_advance_time_and_prune(self):
        """A monitor epoch (which owns no window) still advances sim
        time and prunes every window — rates decay even when the only
        traffic is old."""
        live = LiveMetrics(window=1.0)
        live.emit(VictimArrival(time=0.5, size=1000, is_attack=True))
        live.emit(_drop(0.5, flow=1))
        live.emit(_verdict(0.6, 1, "cut"))
        live.emit(MonitorSnapshot(time=5.0, epoch=2, n_sources=1,
                                  n_destinations=1, ingress_total=1.0,
                                  egress_total=1.0))
        snap = live.snapshot()
        assert snap["arrival_kbps"] == 0.0
        assert snap["drops_per_second"] == 0.0
        assert snap["verdicts_per_second"] == 0.0
        assert snap["arrivals_total"] == 1  # totals never decay


class _PruneEveryEvent(LiveMetrics):
    """The reference: prune after every event, advanced clock or not."""

    def emit(self, event) -> None:
        super().emit(event)
        with self._lock:
            self._prune(self.sim_time)


_TIMES = st.one_of(
    st.floats(min_value=0.0, max_value=6.0),
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
)
_WINDOW_EVENTS = st.one_of(
    st.builds(VictimArrival, time=_TIMES, size=st.integers(40, 1500),
              is_attack=st.booleans()),
    st.builds(_drop, _TIMES, st.integers(1, 5)),
    st.builds(_verdict, _TIMES, st.integers(1, 5), st.just("cut")),
    st.builds(LinkDrop, time=_TIMES, link=st.just("l"), reason=st.just("hook")),
)


class TestPruneOnlyWhenItCanMatter:
    @given(st.lists(_WINDOW_EVENTS, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_same_state_as_pruning_after_every_event(self, events):
        """Pruning is skipped unless the clock moved or the event itself
        is already expired; after every event — in order, out of order,
        a second run restarting at 0 — windows and snapshot are those of
        an aggregator that always prunes."""
        live, reference = LiveMetrics(window=1.0), _PruneEveryEvent(window=1.0)
        for event in events:
            live.emit(event)
            reference.emit(event)
            assert live._arrival_window == reference._arrival_window
            assert live._drop_window == reference._drop_window
            assert live._verdict_window == reference._verdict_window
        assert live.snapshot() == reference.snapshot()

    def test_expired_event_under_a_restarted_clock_is_dropped_at_once(self):
        live = LiveMetrics(window=1.0)
        live.emit(MonitorSnapshot(time=5.0, epoch=1, n_sources=1,
                                  n_destinations=1, ingress_total=1.0,
                                  egress_total=1.0))
        live.emit(VictimArrival(time=0.1, size=1000, is_attack=False))
        assert live.snapshot()["arrival_kbps"] == 0.0
        assert len(live._arrival_window) == 0


class TestFlowDrilldown:
    def test_folds_decisions_and_verdicts_per_flow(self):
        flows = FlowDrilldown()
        flows.emit(_drop(0.1, flow=7, reason="probe"))
        flows.emit(_drop(0.2, flow=7, reason="pdt"))
        flows.emit(DefenseDecision(time=0.3, action="pass", reason="",
                                   truth="tcp_legit", flow=9, atr="ingress1"))
        flows.emit(_verdict(0.4, 7, "cut"))
        snap = flows.snapshot()
        assert snap["tracked_flows"] == 2
        assert snap["decisions_seen"] == 3
        assert snap["verdicts_seen"] == 1
        (top,) = snap["top_dropped"]
        assert top["flow"] == 7
        assert top["drops"] == 2
        assert top["drops_by_reason"] == {"probe": 1, "pdt": 1}
        assert top["last_verdict"] == "cut"
        assert top["atr"] == "ingress0"

    def test_top_throttled_ranks_by_probe_drops(self):
        flows = FlowDrilldown()
        for _ in range(3):
            flows.emit(_drop(0.1, flow=1, reason="pdt"))
        flows.emit(_drop(0.2, flow=2, reason="probe"))
        snap = flows.snapshot()
        assert [e["flow"] for e in snap["top_dropped"]] == [1, 2]
        assert [e["flow"] for e in snap["top_throttled"]] == [2]

    def test_capacity_bounds_memory_with_spacesaving_eviction(self):
        flows = FlowDrilldown(capacity=4)
        # A heavy hitter, then a sweep of one-shot flows past capacity.
        for _ in range(10):
            flows.emit(_drop(0.1, flow=99))
        for flow in range(1, 8):
            flows.emit(_drop(0.2, flow=flow))
        snap = flows.snapshot()
        assert snap["tracked_flows"] == 4
        assert snap["evicted_flows"] == 4  # 8 distinct flows, cap 4
        # The heavy hitter survives the churn of singletons.
        assert snap["top_dropped"][0]["flow"] == 99
        assert snap["top_dropped"][0]["drops"] == 10

    def test_top_k_truncates_the_tables(self):
        flows = FlowDrilldown(top_k=2)
        for flow in range(5):
            flows.emit(_drop(0.1, flow=flow))
        assert len(flows.snapshot()["top_dropped"]) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowDrilldown(capacity=0)
        with pytest.raises(ValueError):
            FlowDrilldown(top_k=0)


class TestAtrDrilldown:
    def test_verdict_counts_and_drops_per_atr(self):
        atrs = AtrDrilldown()
        atrs.emit(_verdict(0.1, 1, "nice", atr="a"))
        atrs.emit(_verdict(0.2, 2, "cut", atr="a"))
        atrs.emit(_verdict(0.3, 3, "cut", atr="b"))
        atrs.emit(_drop(0.4, flow=2, atr="a"))
        snap = atrs.snapshot()
        assert [row["atr"] for row in snap["atrs"]] == ["a", "b"]
        a, b = snap["atrs"]
        assert a["verdicts"] == {"cut": 1, "nice": 1}
        assert a["drops"] == 1
        assert a["drops_by_reason"] == {"probe": 1}
        assert b["verdicts_total"] == 1

    def test_flip_is_a_rejudged_flow_with_a_different_outcome(self):
        atrs = AtrDrilldown()
        atrs.emit(_verdict(0.1, 5, "nice", atr="a"))
        atrs.emit(_verdict(0.2, 5, "nice", atr="a"))   # same: no flip
        assert atrs.snapshot()["atrs"][0]["flips"] == 0
        atrs.emit(_verdict(0.3, 5, "cut", atr="a"))    # flip
        assert atrs.snapshot()["atrs"][0]["flips"] == 1
        # The same flow judged at a DIFFERENT atr is not a flip there.
        atrs.emit(_verdict(0.4, 5, "nice", atr="b"))
        rows = {row["atr"]: row for row in atrs.snapshot()["atrs"]}
        assert rows["b"]["flips"] == 0

    def test_verdict_rate_window_prunes(self):
        atrs = AtrDrilldown(window=1.0)
        atrs.emit(_verdict(0.1, 1, "cut", atr="a"))
        atrs.emit(_verdict(0.2, 2, "cut", atr="a"))
        assert atrs.snapshot()["atrs"][0]["verdicts_per_second"] == 2.0
        atrs.emit(_verdict(5.0, 3, "cut", atr="a"))
        row = atrs.snapshot()["atrs"][0]
        assert row["verdicts_per_second"] == 1.0
        assert row["verdicts_total"] == 3  # totals never decay

    @pytest.mark.parametrize("window", [math.nan, math.inf, 0.0])
    def test_window_must_be_positive_and_finite(self, window):
        with pytest.raises(ValueError, match="window"):
            AtrDrilldown(window=window)

    def test_flow_memory_is_bounded_per_atr(self):
        atrs = AtrDrilldown(flow_memory=2)
        atrs.emit(_verdict(0.1, 1, "nice", atr="a"))
        atrs.emit(_verdict(0.2, 2, "nice", atr="a"))
        atrs.emit(_verdict(0.3, 3, "nice", atr="a"))  # evicts flow 1
        entry = atrs._atrs["a"]
        assert len(entry.last_flow_verdict) == 2
        assert 1 not in entry.last_flow_verdict
        # A forgotten flow re-judged differently is NOT counted as a
        # flip (its history is gone) — the bound trades that recall.
        atrs.emit(_verdict(0.4, 1, "cut", atr="a"))
        assert atrs.snapshot()["atrs"][0]["flips"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AtrDrilldown(window=0.0)
        with pytest.raises(ValueError):
            AtrDrilldown(flow_memory=0)


class TestPrometheusExposition:
    def test_format_is_pinned(self):
        """Scrapers depend on these exact families; renaming one is a
        breaking change and must show up here."""
        live = LiveMetrics(window=1.0)
        _feed_scenario(live)
        text = render_prometheus(live)
        assert text.endswith("\n")
        for needle in (
            "# TYPE repro_sim_time_seconds gauge",
            'repro_victim_arrivals_total{truth="attack"} 1',
            'repro_victim_arrivals_total{truth="legit"} 1',
            "repro_victim_arrival_bytes_total 1500",
            "repro_defense_examined_total 2",
            'repro_defense_drops_total{reason="pdt"} 1',
            "repro_defense_drop_ratio 0.5",
            'repro_verdicts_total{truth="attack",verdict="cut"} 1',
            'repro_link_drops_total{link="uplink:r1",reason="hook"} 1',
            "repro_engine_events_executed_total 1234",
            "repro_engine_pending_events 56",
            "repro_monitor_epochs_total 3",
            "repro_defense_activated 1",
            "repro_runs_completed_total 0",
        ):
            assert needle in text, needle

    def test_label_values_are_escaped(self):
        live = LiveMetrics()
        live.emit(LinkDrop(time=0.0, link='odd"name\\x', reason="hook"))
        text = render_prometheus(live)
        assert 'link="odd\\"name\\\\x"' in text

    def test_newlines_in_label_values_are_escaped(self):
        live = LiveMetrics()
        live.emit(LinkDrop(time=0.0, link="two\nlines", reason="hook"))
        text = render_prometheus(live)
        assert 'link="two\\nlines"' in text
        # The sample must still be exactly one exposition line.
        assert not any(
            line.startswith("lines") for line in text.splitlines()
        )

    def test_non_finite_values_render_prometheus_spellings(self):
        """text format 0.0.4 wants NaN/+Inf/-Inf; Python's str() gives
        nan/inf, which scrapers reject as unparseable."""
        from repro.obs.exposition import _format_value

        assert _format_value(float("nan")) == "NaN"
        assert _format_value(float("inf")) == "+Inf"
        assert _format_value(float("-inf")) == "-Inf"
        assert _format_value(0.5) == "0.5"
        assert _format_value(7) == "7"

    def test_rendered_text_never_leaks_python_float_repr(self):
        live = LiveMetrics(window=1.0)
        _feed_scenario(live)
        text = render_prometheus(live)
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            value = line.rsplit(" ", 1)[1]
            assert value not in ("nan", "inf", "-inf"), line
