"""Observability must never change results: identity across every mode.

The golden master pins ``paper_default`` against the recorded fixture;
these tests pin the *pairwise* identities on a small fast config so a
violation localizes to the mode that broke (victim collector, run
slicing, attached bus) rather than "the fixture failed".
"""

import dataclasses

import pytest

from repro.experiments.presets import paper_default
from repro.experiments.runner import run_experiment
from repro.obs import BufferedSink, EventBus
from tests.metrics.victim_reference import run_with_reference


def _tiny_config(seed: int = 3):
    return paper_default().with_overrides(
        total_flows=10, n_routers=8, duration=2.0, seed=seed
    )


def _fingerprint(result) -> dict:
    summary = {
        key: (value.hex() if isinstance(value, float) else value)
        for key, value in dataclasses.asdict(result.summary).items()
    }
    return {
        "summary": summary,
        "series_total": [x.hex() for x in result.series.total_kbps],
        "series_attack": [x.hex() for x in result.series.attack_kbps],
        "events_executed": result.events_executed,
        "activation": (
            None if result.activation_time is None
            else result.activation_time.hex()
        ),
        "identified": sorted(result.identified_atrs),
    }


@pytest.mark.parametrize("queue", ["heap", "calendar"])
def test_streaming_collector_matches_buffered(queue, monkeypatch):
    """The bounded-memory victim collector is float-identical to the
    arrival-hoarding reference, series included, on both engine cores
    (the ids are the two queue backends' names, kept for the floor list:
    ``tests/sim/conftest.py``)."""
    from tests.sim.conftest import ENGINE_CORES

    monkeypatch.setattr("repro.sim.topology.Simulator", ENGINE_CORES[queue])
    config = _tiny_config()
    streaming = run_experiment(config)
    buffered = run_with_reference(config, monkeypatch)
    assert _fingerprint(buffered) == _fingerprint(streaming)


def test_sliced_run_matches_unsliced():
    """Clock slicing (serve's pacing mechanism) replays the identical
    event sequence: same results, same event count."""
    config = _tiny_config()
    whole = run_experiment(config)
    ticks = []
    sliced = run_experiment(
        config, slice_seconds=0.1, on_slice=ticks.append
    )
    assert _fingerprint(whole) == _fingerprint(sliced)
    # ~duration/step pauses; float accumulation may add or drop one.
    assert 19 <= len(ticks) <= 21
    assert ticks[-1] == config.duration


def test_attached_bus_does_not_perturb_results():
    config = _tiny_config()
    silent = run_experiment(config)
    bus = EventBus()
    sink = bus.subscribe(BufferedSink())
    observed = run_experiment(config, bus=bus)
    assert _fingerprint(silent) == _fingerprint(observed)
    assert len(sink.of_kind("run.started")) == 1
    assert len(sink.of_kind("run.completed")) == 1


def test_bus_events_are_consistent_with_the_summary():
    """The event stream carries the same facts the collectors count."""
    config = _tiny_config()
    bus = EventBus()
    sink = bus.subscribe(BufferedSink())
    result = run_experiment(config, bus=bus)

    arrivals = sink.of_kind("victim.arrival")
    tcp, udp = result.scenario.tcp_sink, result.scenario.udp_sink
    assert len(arrivals) == tcp.packets_received + udp.packets_received
    assert sum(e.size for e in arrivals) == (
        tcp.bytes_received + udp.bytes_received
    )
    assert sum(e.is_attack for e in arrivals) == (
        tcp.attack_packets_received + udp.attack_packets_received
    )
    assert result.scenario.victim_collector.series.observed == sum(
        e.time < config.duration for e in arrivals
    )

    activations = sink.of_kind("defense.activation")
    assert len(activations) == 1
    assert activations[0].time == result.activation_time

    verdicts = sink.of_kind("defense.verdict")
    assert len(verdicts) > 0

    completed = sink.of_kind("run.completed")[0]
    assert completed.events_executed == result.events_executed
    assert completed.seed == config.seed

    snapshots = sink.of_kind("monitor.snapshot")
    stats = sink.of_kind("engine.stats")
    assert len(snapshots) == len(stats) > 0
    assert stats[0].backend == "heap"

    # Monotone non-decreasing times within the run's sim-time events.
    times = [e.time for e in sink.events if e.kind.startswith(("victim.",
                                                               "defense."))]
    assert times == sorted(times)


def test_slice_seconds_must_be_positive():
    with pytest.raises(ValueError):
        run_experiment(_tiny_config(), slice_seconds=0.0)
