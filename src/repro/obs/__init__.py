"""Streaming observability: metric events, pluggable sinks, live views.

The package every layer publishes into:

* :mod:`repro.obs.events` — the event taxonomy (slotted dataclasses).
* :mod:`repro.obs.bus` — :class:`MetricSink` protocol, :class:`EventBus`
  fan-out, :class:`NullSink`/:class:`BufferedSink`/:class:`CallbackSink`,
  and the :class:`~repro.obs.bus.RunBatch` a run's producers publish into.
* :mod:`repro.obs.aggregators` — :class:`LiveMetrics`, the windowed
  bounded-memory aggregator behind ``repro serve``.
* :mod:`repro.obs.exposition` — Prometheus text rendering.
* :mod:`repro.obs.serve` — the ``python -m repro serve`` HTTP layer
  (imported lazily by the CLI; importing it pulls in ``http.server``).

The cardinal rule: **no sink attached, no cost, no behaviour change.**
Producers guard every emit with a bus truthiness test, and the
golden-master suite pins that a bus-free run, a buffered run, and a
streaming-series run are bit-identical.
"""

from repro.obs.bus import (
    NULL_BUS,
    NULL_SINK,
    BufferedSink,
    CallbackSink,
    EventBus,
    MetricSink,
    NullSink,
)
from repro.obs.events import (
    CampaignProgress,
    CampaignRun,
    DefenseActivation,
    DefenseDecision,
    DefenseProbe,
    DefensePushback,
    EngineStats,
    LinkDrop,
    MetricEvent,
    MonitorSnapshot,
    RunCompleted,
    RunStarted,
    Verdict,
    VictimArrival,
)


def __getattr__(name: str):
    # A run never executes the aggregators: their module is imported on
    # the first read of LiveMetrics (PEP 562).
    if name != "LiveMetrics":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.obs.aggregators import LiveMetrics

    return LiveMetrics


__all__ = [
    "NULL_BUS",
    "NULL_SINK",
    "BufferedSink",
    "CallbackSink",
    "CampaignProgress",
    "CampaignRun",
    "DefenseActivation",
    "DefenseDecision",
    "DefenseProbe",
    "DefensePushback",
    "EngineStats",
    "EventBus",
    "LinkDrop",
    "LiveMetrics",
    "MetricEvent",
    "MetricSink",
    "MonitorSnapshot",
    "NullSink",
    "RunCompleted",
    "RunStarted",
    "Verdict",
    "VictimArrival",
]
