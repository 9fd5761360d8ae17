"""Result analysis: multi-seed aggregation, convergence checks, export.

The paper reports single curves; a faithful open-source release also
needs the tooling to quantify run-to-run variation (seeds), to decide
whether a time series has reached steady state, to write results to
disk in formats downstream plotting tools consume, and to fold a run's
defence events into probe-latency and drop-mix views.
"""

from repro.analysis.aggregate import (
    AggregatedMetrics,
    MetricStats,
    aggregate_runs,
    run_seeds,
)
from repro.analysis.convergence import (
    converged,
    settling_time,
)
from repro.analysis.defense_events import (
    ProbeLatency,
    drop_reason_timeline,
    latency_stats,
    probe_to_verdict_latencies,
)
from repro.analysis.export import (
    figure_to_csv,
    figure_to_dict,
    summary_to_dict,
    write_csv,
    write_json,
)

__all__ = [
    "AggregatedMetrics",
    "MetricStats",
    "ProbeLatency",
    "aggregate_runs",
    "converged",
    "drop_reason_timeline",
    "figure_to_csv",
    "figure_to_dict",
    "latency_stats",
    "probe_to_verdict_latencies",
    "run_seeds",
    "settling_time",
    "summary_to_dict",
    "write_csv",
    "write_json",
]
