"""The columnar event trace against the list of records it replaced.

:class:`ReferenceTrace` is the former :class:`~repro.sim.trace.EventTrace`:
one :class:`~repro.sim.trace.TraceRecord` and one detail dict per record.
Each run below is made twice, once with the reference patched in where
the scenario builds its trace, and the two traces must read the same
through every public view: the record sequence, the counters, ``count``
/ ``select`` / ``between`` / ``categories``, and the three
:mod:`repro.analysis.tracetools` views.  The runs themselves must not
move either: the ledger-style fingerprint of both is identical.  Each
category's count must also equal the agents' counter for it, so a MAFIC
record site that writes the wrong category fails here.
"""

import dataclasses
import hashlib
import json

import pytest

import repro.experiments.scenario as scenario
from repro.analysis.tracetools import (
    atr_activity,
    drop_reason_timeline,
    probe_to_verdict_latencies,
)
from repro.experiments.presets import get_preset
from repro.experiments.runner import run_experiment
from repro.sim.trace import EventTrace, TraceRecord

TINY = {"total_flows": 10, "n_routers": 8, "duration": 2.0, "seed": 3}


class ReferenceTrace:
    """The list-of-records trace, kept verbatim as the reference."""

    def __init__(self, enabled=True, max_records=None):
        self.enabled = enabled
        self.max_records = max_records
        self._records = []
        self.dropped_records = 0

    def record(self, time, category, **detail):
        if not self.enabled:
            return
        if self.max_records is not None and len(self._records) >= self.max_records:
            self.dropped_records += 1
            return
        self._records.append(TraceRecord(time=time, category=category, detail=detail))

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def select(self, category):
        if category.endswith("."):
            return [r for r in self._records if r.category.startswith(category)]
        return [r for r in self._records if r.category == category]

    def count(self, category):
        return len(self.select(category))

    def between(self, start, end):
        return [r for r in self._records if start <= r.time < end]

    def categories(self):
        return {r.category for r in self._records}


def _fingerprint(result):
    """Everything of a run that must be bit-identical (floats by hex)."""
    summary = dataclasses.asdict(result.summary)
    blob = json.dumps(
        {
            "summary": {
                key: value.hex() if isinstance(value, float) else value
                for key, value in summary.items()
            },
            "series_total": [value.hex() for value in result.series.total_kbps],
            "events_executed": result.events_executed,
            "identified_atrs": sorted(result.identified_atrs),
            "activation_time": (
                None if result.activation_time is None
                else result.activation_time.hex()
            ),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _run(config, trace_class, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(scenario, "EventTrace", trace_class)
        result = run_experiment(config)
    trace = result.scenario.trace
    assert type(trace) is trace_class
    return result, trace


CASES = {
    "paper-default": ("paper-default", {}),
    "rotation-stress": ("rotation-stress", {}),
    "pulsing-stress": ("pulsing-stress", {}),
    "all-illegal-sources": ("all-illegal-sources", {}),
    "paper-default-capped": ("paper-default", {"trace_max_records": 50}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_columnar_trace_reads_like_the_reference(case, monkeypatch):
    preset, overrides = CASES[case]
    config = get_preset(preset).with_overrides(**TINY, **overrides)
    result, trace = _run(config, EventTrace, monkeypatch)
    reference_result, reference = _run(config, ReferenceTrace, monkeypatch)

    assert _fingerprint(result) == _fingerprint(reference_result)

    def rows(records):
        return [(r.time.hex(), r.category, r.detail) for r in records]

    assert rows(trace) == rows(reference)
    assert len(trace) == len(reference) > 0
    assert trace.dropped_records == reference.dropped_records
    assert trace.categories() == reference.categories()
    prefixes = {category.split(".")[0] + "." for category in reference.categories()}
    for category in sorted(reference.categories() | prefixes):
        assert trace.count(category) == reference.count(category), category
        assert rows(trace.select(category)) == rows(reference.select(category))
    edges = [0.25 * i for i in range(int(config.duration / 0.25) + 2)]
    for start, end in zip(edges, edges[1:]):
        assert rows(trace.between(start, end)) == rows(reference.between(start, end))

    assert probe_to_verdict_latencies(trace) == probe_to_verdict_latencies(reference)
    assert atr_activity(trace) == atr_activity(reference)
    assert drop_reason_timeline(trace) == drop_reason_timeline(reference)

    # Each case exercises what it is here for.
    if case == "all-illegal-sources":
        assert trace.count("drop.illegal") > 0
    if case == "paper-default-capped":
        assert len(trace) == 50 and trace.dropped_records > 0
    else:
        assert trace.dropped_records == 0
        assert trace.count("probe.sent") > 0
        _assert_categories_match_the_agents(trace, result.scenario.agents)


def _assert_categories_match_the_agents(trace, agents):
    """Every record site writes the category its agent counter names."""
    def total(field):
        return sum(getattr(agent.stats, field) for agent in agents.values())

    assert trace.count("pushback.start") == total("activations")
    assert trace.count("pushback.stop") == total("deactivations")
    assert trace.count("probe.sent") == total("probes_initiated")
    for reason in ("probe", "pdt", "illegal", "policy"):
        assert trace.count(f"drop.{reason}") == total(f"packets_dropped_{reason}")
    assert trace.count("drop.") == sum(
        total(f"packets_dropped_{reason}")
        for reason in ("probe", "pdt", "illegal", "policy")
    )
    assert trace.count("flow.nice") == total("verdicts_nice")
    # A cut is an unresponsive verdict or an illegal source, each one PDT
    # admission.
    assert trace.count("flow.cut") == sum(
        agent.tables.counters.pdt_admissions for agent in agents.values()
    )
