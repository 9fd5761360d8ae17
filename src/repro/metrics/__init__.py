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
from repro.metrics.flowreport import FlowFate, FlowReport, build_flow_report
from repro.metrics.rates import MetricsSummary, summarize
from repro.metrics.timeseries import BandwidthSeries

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
