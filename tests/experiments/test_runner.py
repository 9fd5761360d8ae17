"""Integration tests for repro.experiments.runner — full small runs."""

import pytest

from repro.experiments.config import DefenseKind, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.collectors import FlowTruth
from repro.obs import BufferedSink, EventBus, LiveMetrics
from tests.metrics.victim_reference import count_arrivals


def small_config(**overrides):
    defaults = dict(total_flows=12, n_routers=10, duration=3.0, seed=11)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def default_run():
    """One shared default run (module-scoped: runs are seconds-long)."""
    return run_experiment(small_config())


class TestDefaultRun:
    def test_defense_activates_after_attack_starts(self, default_run):
        cfg = default_run.config
        assert default_run.activation_time is not None
        assert cfg.attack_start <= default_run.activation_time <= cfg.duration

    def test_attack_mostly_dropped(self, default_run):
        assert default_run.summary.accuracy > 0.9

    def test_no_wellbehaved_flow_condemned(self, default_run):
        confusion = default_run.scenario.defense_collector.verdict_confusion()
        assert confusion.get((FlowTruth.TCP_LEGIT, "cut"), 0) == 0

    def test_attack_flows_condemned(self, default_run):
        confusion = default_run.scenario.defense_collector.verdict_confusion()
        cut = confusion.get((FlowTruth.ATTACK, "cut"), 0)
        illegal = confusion.get((FlowTruth.ATTACK, "illegal_source"), 0)
        assert cut + illegal >= 1

    def test_victim_sees_rate_collapse(self, default_run):
        assert default_run.summary.traffic_reduction > 0.5

    def test_identified_atrs_cover_true_atrs(self, default_run):
        assert default_run.atr_recall >= 0.8

    def test_series_covers_run(self, default_run):
        series = default_run.series
        assert series.times[0] >= 0.0
        assert series.times[-1] <= default_run.config.duration
        assert series.peak_total_kbps() > 0

    def test_events_and_wall_time_recorded(self, default_run):
        assert default_run.events_executed > 1000
        assert default_run.wall_seconds > 0


class TestUndefendedControl:
    def test_no_defense_no_drops(self):
        bus = EventBus()
        arrivals = bus.subscribe(BufferedSink(), kinds=("victim.arrival",))
        run = run_experiment(small_config(defense=DefenseKind.NONE), bus=bus)
        assert run.summary.total_examined == 0
        assert run.activation_time is None
        # Attack keeps hitting the victim for the whole run.
        attack, _ = count_arrivals(
            arrivals.events, run.config.attack_start + 0.5, run.config.duration
        )
        assert attack > 100


class TestReproducibility:
    def test_same_seed_same_results(self):
        a = run_experiment(small_config(seed=21))
        b = run_experiment(small_config(seed=21))
        assert a.fingerprint() == b.fingerprint()
        with pytest.raises(ValueError, match="verdict log"):
            a.detached().fingerprint()

    def test_different_seed_different_run(self):
        a = run_experiment(small_config(seed=21))
        b = run_experiment(small_config(seed=22))
        assert a.events_executed != b.events_executed


class TestStreamingConfigField:
    def test_config_field_selects_streaming_collector(self):
        """Every run streams — with ``config.streaming_series`` or
        without it (the field is inert, kept for the config hash)."""
        from repro.metrics.collectors import StreamingVictimCollector

        for streaming_series in (True, False):
            run = run_experiment(
                small_config(streaming_series=streaming_series)
            )
            assert isinstance(
                run.scenario.victim_collector, StreamingVictimCollector
            )

    def test_config_field_matches_buffered_results(self):
        on = run_experiment(small_config(streaming_series=True))
        off = run_experiment(small_config())
        assert on.fingerprint() == off.fingerprint()


class TestAtrMetrics:
    def test_precision_recall_bounds(self, default_run):
        assert 0.0 <= default_run.atr_precision <= 1.0
        assert 0.0 <= default_run.atr_recall <= 1.0

    def test_no_attack_means_no_activation(self):
        run = run_experiment(small_config(attack_fraction=0.0))
        assert run.activation_time is None
        assert run.identified_atrs == set()
        assert run.atr_recall == 1.0  # vacuous


def _arrivals(scenario):
    """Packets the victim's two sinks have received."""
    return scenario.tcp_sink.packets_received + scenario.udp_sink.packets_received


class _Built(list):
    """The scenarios the runner built, each passed to every ``arm`` hook."""

    def __init__(self):
        super().__init__()
        self.arm = []


@pytest.fixture
def built(monkeypatch):
    from repro.experiments import runner

    scenarios = _Built()
    build = runner.build_scenario

    def build_and_keep(*args, **kwargs):
        scenario = build(*args, **kwargs)
        scenarios.append(scenario)
        for arm in scenarios.arm:
            arm(scenario)
        return scenario

    monkeypatch.setattr(runner, "build_scenario", build_and_keep)
    return scenarios


class TestRunBatchFlushPoints:
    """A run's events reach the sinks in batches; these are the moments
    at which nothing may still be waiting in the batch."""

    def test_every_slice_reads_a_view_current_to_the_clock(self, built):
        live = LiveMetrics(window=1.0)
        bus = EventBus()
        bus.subscribe(live)
        seen = []

        def on_slice(now):
            collected = _arrivals(built[-1])
            seen.append((live.arrivals_total, collected, live.sim_time, now))

        run_experiment(
            small_config(), bus=bus, slice_seconds=0.1, on_slice=on_slice
        )
        assert len(seen) == 30
        for folded, collected, sim_time, now in seen:
            assert folded == collected
            assert sim_time <= now
        assert seen[-1][0] > 500  # slices far shorter than a batch

    def test_started_first_completed_last_nothing_left_behind(self):
        sink = BufferedSink()
        result = run_experiment(small_config(), bus=sink)
        assert sink.events[0].kind == "run.started"
        assert sink.events[-1].kind == "run.completed"
        assert [e.kind for e in sink.events].count("run.completed") == 1
        assert len(sink.of_kind("victim.arrival")) == _arrivals(result.scenario)

    def test_a_run_that_raises_has_delivered_all_it_emitted(self, built):
        def boom():
            raise RuntimeError("boom")

        built.arm.append(lambda scenario: scenario.sim.schedule_at(1.0, boom))
        sink = BufferedSink()
        with pytest.raises(RuntimeError, match="boom"):
            run_experiment(small_config(), bus=sink)
        assert 0 < _arrivals(built[-1]) == len(sink.of_kind("victim.arrival"))
        assert sink.events[0].kind == "run.started"

    def test_a_caller_built_scenario_is_not_batched(self):
        """Its producers hold the caller's bus; only the runner's two
        bracket events could be batched, and they go straight through."""
        from repro.experiments.scenario import build_scenario

        config = small_config(duration=1.5)
        calls = []

        class Spy(BufferedSink):
            def emit(self, event):
                calls.append(scenario.sim.now)
                super().emit(event)

        bus = EventBus()
        sink = bus.subscribe(Spy())
        scenario = build_scenario(config, bus=bus)
        run_experiment(config, scenario=scenario, bus=bus)
        assert sink.events[0].kind == "run.started"
        assert sink.events[-1].kind == "run.completed"
        # Delivered at the instant of emission, not at a flush.
        assert calls[1:-1] == [event.time for event in sink.events[1:-1]]
