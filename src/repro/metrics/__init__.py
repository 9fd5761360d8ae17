"""Evaluation metrics: the paper's Table-I quantities.

* α — attacking-packet dropping accuracy (Section V.A)
* β — traffic reduction rate (Section V.B)
* θp — false positive rate (Section V.C)
* θn — false negative rate (Section V.C)
* Lr — legitimate-packet dropping rate (Section V.D)

Collectors hang off the defence agents (ground-truth classification of
every drop/pass decision) and off the victim sink (arrival accounting and
time series); :mod:`repro.metrics.rates` folds them into the summary
rates.
"""

from repro.metrics.collectors import (
    DefenseMetricsCollector,
    FlowTruth,
    StreamingVictimCollector,
)
from repro.metrics.rates import MetricsSummary, summarize
from repro.metrics.timeseries import BandwidthSeries


def __getattr__(name: str):
    # The flow report is post-hoc analysis a run never executes: its
    # module is imported on the first read of one of its names (PEP 562).
    if name not in ("FlowFate", "FlowReport", "build_flow_report"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.metrics import flowreport

    return getattr(flowreport, name)


__all__ = [
    "BandwidthSeries",
    "DefenseMetricsCollector",
    "FlowFate",
    "FlowReport",
    "FlowTruth",
    "MetricsSummary",
    "StreamingVictimCollector",
    "build_flow_report",
    "summarize",
]
