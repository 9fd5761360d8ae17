"""End-to-end integration tests of the full MAFIC pipeline.

These exercise the whole stack — topology, transport, counting,
detection, probing, verdicts — and assert the behaviours the paper
claims, on small-but-real scenarios.
"""

import pytest

from repro.attacks.spoofing import SpoofMode, SpoofingModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.collectors import FlowTruth
from repro.metrics.timeseries import BandwidthSeries
from repro.obs import BufferedSink, EventBus
from tests.metrics.victim_reference import count_arrivals


def config(**overrides):
    defaults = dict(total_flows=16, n_routers=10, duration=3.5, seed=42)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def published():
    """The run, every victim arrival it published, and its probes and
    pushback starts/stops."""
    bus = EventBus()
    arrivals = bus.subscribe(BufferedSink(), kinds=("victim.arrival",))
    defense = bus.subscribe(
        BufferedSink(), kinds=("defense.probe", "defense.pushback")
    )
    return run_experiment(config(), bus=bus), arrivals.events, defense


@pytest.fixture(scope="module")
def observed(published):
    """The run, and every victim arrival it published."""
    return published[:2]


@pytest.fixture(scope="module")
def run(published):
    return published[0]


class TestDefenseLifecycle:
    def test_activation_follows_attack_within_two_epochs(self, run):
        cfg = run.config
        assert run.activation_time is not None
        delay = run.activation_time - cfg.attack_start
        assert delay <= 2 * cfg.monitor_period + 1e-9

    def test_pushback_start_published(self, published):
        starts = published[2].of_kind("defense.pushback")
        assert any(event.active for event in starts)

    def test_probes_were_sent(self, published):
        assert published[2].of_kind("defense.probe")

    def test_tables_populated_during_run(self, run):
        total_pdt = sum(
            agent.tables.counters.pdt_admissions
            for agent in run.scenario.agents.values()
        )
        assert total_pdt >= run.config.n_zombies * 0.6


class TestPaperClaims:
    """Section-V headline claims, at integration-test tolerances."""

    def test_accuracy_above_95_percent(self, run):
        assert run.summary.accuracy > 0.95

    def test_legit_loss_below_10_percent(self, run):
        assert run.summary.legit_drop_rate < 0.10

    def test_false_positive_below_1_percent(self, run):
        assert run.summary.false_positive_rate < 0.01

    def test_false_negative_below_5_percent(self, run):
        assert run.summary.false_negative_rate < 0.05

    def test_victim_arrival_collapses_after_activation(self, run):
        assert run.summary.traffic_reduction > 0.5

    def test_attack_suppressed_at_steady_state(self, observed):
        """Well after the probing phase, almost no attack packets arrive."""
        run, arrivals = observed
        t0 = run.activation_time
        attack_late, _ = count_arrivals(arrivals, t0 + 1.0, run.config.duration)
        attack_peak, _ = count_arrivals(arrivals, t0 - 0.25, t0)
        assert attack_late < 0.15 * attack_peak * (
            (run.config.duration - t0 - 1.0) / 0.25
        )

    def test_tcp_flows_recover_bandwidth(self, observed):
        """Fig 4(b): nice flows regain their share after the probe."""
        run, arrivals = observed
        t0 = run.activation_time
        _, legit_before = count_arrivals(arrivals, t0 - 0.5, t0)
        _, legit_after = count_arrivals(
            arrivals, run.config.duration - 0.5, run.config.duration
        )
        assert legit_after > 0.4 * legit_before


class TestVerdictCorrectness:
    def test_zombies_with_stable_sources_condemned(self, run):
        confusion = run.scenario.defense_collector.verdict_confusion()
        condemned = confusion.get((FlowTruth.ATTACK, "cut"), 0) + confusion.get(
            (FlowTruth.ATTACK, "illegal_source"), 0
        )
        assert condemned >= 0.6 * run.config.n_zombies

    def test_no_tcp_flow_condemned(self, run):
        confusion = run.scenario.defense_collector.verdict_confusion()
        assert confusion.get((FlowTruth.TCP_LEGIT, "cut"), 0) == 0

    def test_probed_tcp_flows_reach_nft(self, run):
        confusion = run.scenario.defense_collector.verdict_confusion()
        assert confusion.get((FlowTruth.TCP_LEGIT, "nice"), 0) >= 1


class TestSpoofingRegimes:
    def test_all_illegal_sources_cut_instantly(self):
        run = run_experiment(
            config(spoofing=SpoofingModel(mode=SpoofMode.ILLEGAL), seed=43)
        )
        dc = run.scenario.defense_collector
        attack = dc.of(FlowTruth.ATTACK)
        # Nearly every attack drop is the PDT legality shortcut.
        assert attack.dropped_illegal > 0.9 * attack.dropped
        assert run.summary.accuracy > 0.98

    def test_all_legal_spoofing_still_caught_by_probe(self):
        run = run_experiment(
            config(spoofing=SpoofingModel(mode=SpoofMode.LEGIT_SUBNET), seed=44)
        )
        dc = run.scenario.defense_collector
        attack = dc.of(FlowTruth.ATTACK)
        assert attack.dropped_illegal == 0  # shortcut never fires
        assert run.summary.accuracy > 0.95  # probing does the work

    def test_no_spoofing_also_caught(self):
        run = run_experiment(
            config(spoofing=SpoofingModel(mode=SpoofMode.NONE), seed=45)
        )
        assert run.summary.accuracy > 0.95


class TestUnresponsiveLegitCollateral:
    def test_legit_udp_flows_are_cut(self):
        """The paper's accepted collateral: unresponsive != malicious,
        but unresponsive flows get cut anyway."""
        run = run_experiment(config(tcp_fraction=0.5, seed=46))
        confusion = run.scenario.defense_collector.verdict_confusion()
        assert confusion.get((FlowTruth.UDP_LEGIT, "cut"), 0) >= 1

    def test_udp_collateral_not_counted_in_theta_p(self):
        run = run_experiment(config(tcp_fraction=0.5, seed=46))
        dc = run.scenario.defense_collector
        udp = dc.of(FlowTruth.UDP_LEGIT)
        assert udp.dropped > 0  # collateral happened
        # theta_p only reflects TCP_LEGIT pdt drops.
        tcp = dc.of(FlowTruth.TCP_LEGIT)
        expected = tcp.dropped_pdt / dc.total_examined
        assert run.summary.false_positive_rate == pytest.approx(expected)


class TestSeries:
    def test_fig4b_style_series_shows_the_cut(self, run):
        series: BandwidthSeries = run.series
        t0 = run.activation_time
        peak = series.mean_total_kbps(t0 - 0.3, t0)
        dip = series.mean_total_kbps(t0 + 0.1, t0 + 0.4)
        assert dip < 0.5 * peak
