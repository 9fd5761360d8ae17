"""Golden-master: scenario composition reproduces recorded summaries.

The fixture pins the ``paper_default`` per-seed metric summaries
(hex-encoded floats, so the comparison is bit-exact).  It was first
recorded from the pre-refactor monolithic ``build_scenario`` and the
registry composition path reproduced it bit-for-bit, proving the
refactor changed no physics.  It was then re-recorded when link drains
were batched: the event count dropped ~46% and the changed same-time
event interleaving moved exactly one boundary packet on seed 1
(wellbehaved_examined 4374 -> 4375; alpha/beta/theta unchanged) — see
the ROADMAP engine perf notes.  Any future change that silently alters
paper_default physics fails here; an intentional engine change must
re-record the fixture and document the delta the same way.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments.presets import paper_default
from repro.experiments.runner import run_experiment
from tests.metrics.victim_reference import run_with_reference

FIXTURE = Path(__file__).parent / "fixtures" / "golden_paper_default.json"


def _hexed_summary(result) -> dict:
    fields = dataclasses.asdict(result.summary)
    return {
        key: (value.hex() if isinstance(value, float) else value)
        for key, value in fields.items()
    }


@pytest.mark.parametrize("collector", ["buffered", "streaming"])
@pytest.mark.parametrize("queue", ["public", "reference"])
@pytest.mark.parametrize("seed", [1, 2])
def test_paper_default_matches_recorded_summary(seed, queue, collector, monkeypatch):
    """Both engine cores must reproduce the pinned fixture bit-exactly —
    the compiled core earns its place on this proof.  (``queue`` picks
    the core: see ``tests/sim/conftest.py``.)

    The ``collector`` axis pins the victim collector the same way: the
    streaming one (bounded memory, windowed series aggregation; the
    runner's only collector) and the arrival-hoarding reference it
    replaced (``tests/metrics/victim_reference.py``, put in through
    ``build_scenario(victim_collector=...)``) must both match the
    fixture recorded from the latter, with **no re-record** — same
    floats, same order.
    """
    from tests.sim.conftest import ENGINE_CORES

    core = ENGINE_CORES[queue]
    monkeypatch.setattr("repro.sim.topology.Simulator", core)
    golden = json.loads(FIXTURE.read_text())[str(seed)]
    config = paper_default().with_overrides(seed=seed)
    if collector == "streaming":
        result = run_experiment(config)
    else:
        result = run_with_reference(config, monkeypatch)
    assert type(result.scenario.sim) is core
    hoards = hasattr(result.scenario.victim_collector, "arrivals")
    assert hoards == (collector == "buffered")
    assert _hexed_summary(result) == golden["summary"]
    assert result.events_executed == golden["events_executed"]
    assert sorted(result.identified_atrs) == golden["identified_atrs"]
    assert sorted(result.true_atrs) == golden["true_atrs"]
    recorded = golden["activation_time"]
    if recorded is None:
        assert result.activation_time is None
    else:
        assert result.activation_time.hex() == recorded


def test_observed_run_matches_recorded_summary():
    """A subscribed event bus must not perturb the physics: the same
    fixture, bit-exact, with every producer actually emitting."""
    from repro.obs import BufferedSink, EventBus

    golden = json.loads(FIXTURE.read_text())["1"]
    bus = EventBus()
    sink = bus.subscribe(BufferedSink())
    result = run_experiment(
        paper_default().with_overrides(seed=1), bus=bus
    )
    assert _hexed_summary(result) == golden["summary"]
    assert result.events_executed == golden["events_executed"]
    assert len(sink.of_kind("victim.arrival")) > 0
    assert len(sink.of_kind("defense.verdict")) > 0
    assert len(sink.of_kind("run.completed")) == 1
