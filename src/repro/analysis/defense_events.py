"""Derived views over a run's defence events.

Folds the bus's ``defense.*`` events into the operational questions an
operator asks: how long from probe to verdict, and what is the
drop-reason mix over time.  (Per-ATR load is
:class:`~repro.obs.aggregators.AtrDrilldown`'s, which folds the same
events live.)  Each view takes any iterable of
:class:`~repro.obs.events.MetricEvent` in emission order, skips the
kinds it does not read, and passes over it once, so a recording
(``open_recording(path).events()``) folds as it is read::

    sink = BufferedSink()
    run_experiment(config, bus=sink)
    latencies = probe_to_verdict_latencies(sink.events)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.events import MetricEvent
from repro.util.stats import RunningStats


@dataclass
class ProbeLatency:
    """One flow's probe-to-verdict interval."""

    flow: int
    probed_at: float
    verdict_at: float
    verdict: str  # "nice" | "cut"

    @property
    def latency(self) -> float:
        """Seconds from first probe to verdict."""
        return self.verdict_at - self.probed_at


def probe_to_verdict_latencies(
    events: Iterable[MetricEvent],
) -> list[ProbeLatency]:
    """Pair each flow's first probe with its first verdict after it.

    A condemned illegal source is a ``"cut"``; it is never probed, so it
    has no latency.
    """
    first_probe: dict[int, float] = {}
    judged: set[int] = set()
    results: list[ProbeLatency] = []
    for event in events:
        kind = event.kind
        if kind == "defense.probe":
            first_probe.setdefault(event.label, event.time)
        elif kind == "defense.verdict":
            flow = event.label
            if flow in judged or flow not in first_probe:
                continue
            judged.add(flow)
            results.append(ProbeLatency(
                flow=flow,
                probed_at=first_probe[flow],
                verdict_at=event.time,
                verdict="nice" if event.verdict == "nice" else "cut",
            ))
    return results


def latency_stats(latencies: list[ProbeLatency]) -> RunningStats:
    """Fold latencies into RunningStats (mean/min/max/stddev)."""
    stats = RunningStats()
    for item in latencies:
        stats.update(item.latency)
    return stats


def drop_reason_timeline(
    events: Iterable[MetricEvent], bin_width: float = 0.25
) -> dict[str, list[tuple[float, int]]]:
    """reason -> [(bin centre, drop count)] over every defence drop."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    buckets: dict[str, dict[int, int]] = {}
    for event in events:
        if event.kind != "defense.decision" or event.action != "drop":
            continue
        index = int(event.time / bin_width)
        per_reason = buckets.setdefault(event.reason, {})
        per_reason[index] = per_reason.get(index, 0) + 1
    return {
        reason: [
            ((index + 0.5) * bin_width, count)
            for index, count in sorted(bins.items())
        ]
        for reason, bins in buckets.items()
    }
