"""The defence-event views reproduce the views the event trace gave.

Runs used to log MAFIC's probes, drops, verdicts and pushback
starts/stops twice: into a per-run event trace and onto the event bus.
The trace is gone; its three views (probe-to-verdict latency, per-ATR
activity, drop-reason timeline) now fold bus events.  Each digest below
was computed from the trace's views on the same run before the trace
was deleted, over a payload built exactly as :func:`_payload` builds it
(floats at full precision), so the event-based views must reproduce
the trace's, value for value.

Each run also checks that the bus carries one event per agent counter:
a probe per ``probes_initiated``, a drop decision per counted drop, a
pushback start/stop per activation/deactivation, a verdict per table
move.
"""

import hashlib
import json

import pytest

from repro.analysis.defense_events import (
    drop_reason_timeline,
    latency_stats,
    probe_to_verdict_latencies,
)
from repro.experiments.presets import get_preset
from repro.experiments.runner import run_experiment
from repro.obs import BufferedSink
from repro.obs.aggregators import AtrDrilldown

#: preset -> (overrides, sha256 of the views' payload).  Every run stays
#: below the trace's default cap of 200,000 records (the largest,
#: rotation-stress, traced 11,200), so the trace saw every event.
DIGESTS = {
    "paper-default": (
        {"seed": 1},
        "1edb75f62c72c250bc9bf2487ff5282be13fe3b81c825dc119788db84aced2a3",
    ),
    "rotation-stress": (
        {"seed": 1, "duration": 3.0},
        "ce31497eca0e9dda5bf65daca2874eb0806c2913af01a6bf734aeed01c66c84b",
    ),
    # Re-probing: renotice_interval demotes NFT flows, so flows are
    # probed and judged more than once.
    "pulsing-stress": (
        {"seed": 1},
        "55fb1c5e05da54d49c4be4bd94d846b7021a6b9ee563624be819d45683d62627",
    ),
}


def _payload(latencies, stats, atrs, timeline):
    """The three views as JSON-able data.

    ``atrs`` maps an ATR to its activity as the trace's view held it:
    first start, last stop, probes, drops by reason, nice and cut
    verdicts (an illegal-source condemnation counts as a cut).
    """
    return {
        "latencies": [
            [item.flow, item.probed_at, item.verdict_at, item.verdict]
            for item in latencies
        ],
        "latency_stats": [
            stats.count, stats.mean, stats.variance,
            stats.minimum if stats.count else None,
            stats.maximum if stats.count else None,
        ],
        "atrs": {
            atr: [
                row["activated_at"], row["deactivated_at"], row["probes"],
                sorted(row["drops_by_reason"].items()),
                row["verdicts"].get("nice", 0),
                row["verdicts"].get("cut", 0)
                + row["verdicts"].get("illegal_source", 0),
            ]
            for atr, row in sorted(atrs.items())
        },
        "timeline": {
            reason: [list(pair) for pair in bins]
            for reason, bins in sorted(timeline.items())
        },
    }


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("preset", sorted(DIGESTS))
def test_event_views_reproduce_the_trace_views(preset):
    overrides, expected = DIGESTS[preset]
    sink = BufferedSink()
    result = run_experiment(get_preset(preset).with_overrides(**overrides), bus=sink)
    events = sink.events

    drilldown = AtrDrilldown()
    for event in events:
        drilldown.emit(event)
    atrs = {row["atr"]: row for row in drilldown.snapshot()["atrs"]}
    latencies = probe_to_verdict_latencies(iter(events))
    payload = _payload(
        latencies, latency_stats(latencies), atrs,
        drop_reason_timeline(iter(events)),
    )
    assert latencies and atrs and payload["timeline"]
    assert _digest(payload) == expected

    _assert_one_event_per_counted_action(events, result.scenario.agents)


def _assert_one_event_per_counted_action(events, agents):
    def total(field):
        return sum(getattr(agent.stats, field) for agent in agents.values())

    def count(kind, **fields):
        return sum(
            1 for event in events if event.kind == kind
            and all(getattr(event, k) == v for k, v in fields.items())
        )

    assert count("defense.pushback", active=True) == total("activations") > 0
    assert count("defense.pushback", active=False) == total("deactivations")
    assert count("defense.probe") == total("probes_initiated") > 0
    for reason in ("probe", "pdt", "illegal", "policy"):
        assert count("defense.decision", action="drop", reason=reason) == (
            total(f"packets_dropped_{reason}")
        ), reason
    assert count("defense.verdict", verdict="nice") == total("verdicts_nice")
    # A cut is an unresponsive verdict or an illegal source, each one PDT
    # admission.
    assert count("defense.verdict", verdict="cut") + count(
        "defense.verdict", verdict="illegal_source"
    ) == sum(agent.tables.counters.pdt_admissions for agent in agents.values())
