"""Query and aggregate a campaign's stored runs.

The store answers "which completed runs do I already have for config
X?"; this module answers the questions the paper's tables and figures
ask: per-axis-point metric means with confidence intervals, sweeps
reloadable into :class:`~repro.experiments.sweeps.SweepResult`, and
deterministic JSON/CSV report exports.  Everything reads only the
deterministic artifact fields, so a report from a resumed campaign is
bit-identical to one from an uninterrupted execution.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Iterable

from repro.analysis.aggregate import AggregatedMetrics, aggregate_runs
from repro.campaign.orchestrator import DEFAULT_ROOT, open_store
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore, StoredRun
from repro.experiments.figures import FigureResult, figure_from_table
from repro.experiments.sweeps import SweepPoint, SweepResult

#: The headline metrics reports tabulate, in paper order.
REPORT_METRICS = (
    "accuracy",
    "traffic_reduction",
    "false_positive_rate",
    "false_negative_rate",
    "legit_drop_rate",
)


def load_runs(
    spec: CampaignSpec,
    root: str | Path = DEFAULT_ROOT,
    where: Callable[[StoredRun], bool] | None = None,
    with_series: bool = True,
) -> list[StoredRun]:
    """The campaign's completed runs, in plan order, optionally filtered.

    Only runs the current spec plans are returned (stale artifacts from
    earlier spec revisions are ignored); missing runs are skipped, so a
    partial campaign queries fine.  ``with_series=False`` skips
    materializing each run's bandwidth-series lists for summary-only
    consumers (the artifact JSON is still parsed whole).
    """
    return _load_planned(spec, root, where, with_series)[1]


def _load_planned(
    spec: CampaignSpec,
    root: str | Path,
    where: Callable[[StoredRun], bool] | None = None,
    with_series: bool = True,
) -> tuple[int, list[StoredRun]]:
    """(planned-cell count, completed runs) computed from ONE plan pass.

    Summary-only loads (``with_series=False``) go through ``index.jsonl``
    when a row is available: one sequential file read replaces one JSON
    document per artifact, which is what keeps ``status``/``report`` on
    a >10k-run grid flat.  Membership is still decided by the artifacts
    on disk (one readdir), so a stale index row — its artifact gc'd or
    hand-deleted — can never resurrect a run; a missing or torn row,
    or one whose recorded artifact size no longer matches the file on
    disk, just falls back to reading that artifact.
    """
    store = open_store(spec, root)
    plan = spec.plan()
    runs: list[StoredRun] = []
    on_disk = store.run_ids()  # one readdir; the artifact is the truth
    index = store.read_index() if not with_series else {}
    for planned in plan:
        if planned.run_id not in on_disk:
            continue
        row = index.get(planned.run_id)
        if row is not None and store.index_row_fresh(row):
            try:
                run = store.run_from_index_row(
                    row, planned.config, planned.point
                )
            except (KeyError, TypeError):
                # A row from an older index shape: fall back to the
                # artifact rather than guessing at missing fields.
                run = store.read_run(planned.run_id, load_series=False)
        else:
            # No row, a pre-size row, or a size mismatch (artifact
            # replaced/truncated since the row was appended): read the
            # artifact so corruption surfaces instead of being masked.
            run = store.read_run(planned.run_id, load_series=with_series)
        # The point comes from the *current* plan, not the artifact:
        # artifacts written by an older spec revision (or by an ad-hoc
        # cached batch, which stores point={}) carry stale/absent axis
        # metadata, and grouping on it would mis-aggregate.  The config
        # hash ties the artifact to the cell; the plan names the cell.
        run.point = dict(planned.point)
        if where is None or where(run):
            runs.append(run)
    return len(plan), runs


def group_by_point(
    runs: Iterable[StoredRun],
) -> dict[tuple, list[StoredRun]]:
    """Group runs by their axis point (seeds collapse into one group).

    Keys are ``((field, value), ...)`` tuples in axis order — hashable
    (list/dict axis values are frozen into tuples) and stable across
    processes.
    """
    groups: dict[tuple, list[StoredRun]] = {}
    for run in runs:
        key = tuple(
            (field, _freeze(value)) for field, value in run.point.items()
        )
        groups.setdefault(key, []).append(run)
    return groups


def _freeze(value):
    """A hashable stand-in for an axis value (lists/dicts -> tuples)."""
    if isinstance(value, dict):
        return tuple(
            (key, _freeze(value[key])) for key in sorted(value)
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def aggregate_by_point(
    runs: Iterable[StoredRun], confidence: float = 0.95
) -> list[tuple[dict, AggregatedMetrics]]:
    """Per-point metric aggregation over seeds, in first-seen point order."""
    out = []
    for key, group in group_by_point(runs).items():
        out.append((dict(key), aggregate_runs(group, confidence=confidence)))
    return out


def to_sweep_result(
    runs: Iterable[StoredRun],
    x_field: str,
    name: str = "campaign",
    reduce: Callable[[list[StoredRun]], StoredRun] | None = None,
) -> SweepResult:
    """Reload stored runs as a :class:`SweepResult` over one axis.

    ``x_field`` is the axis whose values become the sweep's x points;
    multi-seed groups at one x are collapsed by ``reduce`` (default: the
    lowest-seed run), mirroring :func:`repro.experiments.sweeps.sweep`'s
    representative-run convention.  Results are detached
    (``scenario=None``): they are read back from the store, not live.
    Categorical axes (component names like ``defense``) keep their raw
    values as x.
    """
    raw_x: dict = {}  # frozen key -> raw axis value, insertion-ordered
    by_x: dict = {}
    for run in runs:
        if x_field not in run.point:
            raise KeyError(
                f"run {run.run_id} has no axis {x_field!r}; axes: "
                f"{sorted(run.point)}"
            )
        value = run.point[x_field]
        frozen = _freeze(value)
        raw_x.setdefault(frozen, value)
        by_x.setdefault(frozen, []).append(run)
    xs = [_as_x(raw_x[frozen]) for frozen in by_x]
    result = SweepResult(name=name, x_values=xs)
    for x, group in zip(xs, by_x.values()):
        group.sort(key=lambda run: run.seed)
        chosen = reduce(group) if reduce is not None else group[0]
        result.points.append(SweepPoint(x=x, result=chosen.to_result()))
    return result


def _as_x(value):
    """Numeric axis values become floats; categorical ones pass through."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    return float(value)


def campaign_report(
    spec: CampaignSpec,
    root: str | Path = DEFAULT_ROOT,
    confidence: float = 0.95,
) -> dict:
    """The campaign's deterministic aggregate report (JSON-friendly).

    Bit-for-bit reproducible for a given set of artifacts: plan order,
    sorted keys, and no wall-clock fields.  The plan expands once and
    stored series are not materialized — the report reads only summary
    scalars.
    """
    planned, runs = _load_planned(spec, root, with_series=False)
    points = []
    for key, group in group_by_point(runs).items():
        aggregated = aggregate_runs(group, confidence=confidence)
        metrics = {}
        for metric_name in REPORT_METRICS:
            stats = aggregated[metric_name]
            metrics[metric_name] = {
                "mean": stats.mean,
                "stddev": stats.stddev,
                "ci_halfwidth": stats.ci_halfwidth,
                "n": stats.n,
            }
        points.append(
            {
                "point": dict(key),
                "n_runs": aggregated.n_runs,
                "seeds": sorted(run.seed for run in group),
                "metrics": metrics,
            }
        )
    return {
        "campaign": spec.name,
        "confidence": confidence,
        "planned": planned,
        "complete": len(runs),
        "points": points,
    }


def report_rows(report: dict) -> list[list[Any]]:
    """Flatten a :func:`campaign_report` payload into CSV rows.

    One row per axis point: the point's axis values, the per-point run
    count, then mean and CI half-width per headline metric.
    """
    axis_fields: list[str] = []
    for entry in report["points"]:
        for field in entry["point"]:
            if field not in axis_fields:
                axis_fields.append(field)
    header = list(axis_fields) + ["n_runs"]
    for metric_name in REPORT_METRICS:
        header += [metric_name, f"{metric_name}_ci"]
    rows: list[list[Any]] = [header]
    for entry in report["points"]:
        row: list[Any] = [entry["point"].get(f, "") for f in axis_fields]
        row.append(entry["n_runs"])
        for metric_name in REPORT_METRICS:
            stats = entry["metrics"][metric_name]
            row += [stats["mean"], stats["ci_halfwidth"]]
        rows.append(row)
    return rows


def runs_where(
    store: CampaignStore, load_series: bool = True, **field_equals: Any
) -> list[StoredRun]:
    """Ad-hoc store query: runs whose config fields equal the given values.

    ``runs_where(store, defense="mafic", seed=3)`` — answers "which
    completed runs do I already have for config X?" without a spec.
    ``load_series=False`` makes the scan summary-only: the store never
    materializes a bandwidth series and never opens a sidecar, so
    filtering a huge store on config fields stays cheap.
    """
    matches = []
    for run in store.iter_runs(load_series=load_series):
        config = run.config
        if all(
            getattr(config, field) == value
            for field, value in field_equals.items()
        ):
            matches.append(run)
    return matches


def campaign_figures(
    spec: CampaignSpec,
    root: str | Path = DEFAULT_ROOT,
    metrics: tuple[str, ...] = REPORT_METRICS,
) -> list[FigureResult]:
    """Regenerate the campaign's figure set from stored runs — no
    simulation.

    One figure per (numeric axis, headline metric) pair: the axis values
    become the x axis, every combination of the *other* axes becomes a
    series, and each y is the metric's mean over seeds — the campaign
    analogue of the paper's ``fig3a``-style grids, rebuilt purely from
    summary artifacts (series sidecars are never opened).  Axes with
    non-numeric values (component names and the like) only ever label
    series, since a figure needs an ordered x.  Deterministic: plan
    order fixes series order, so regenerating from a resumed store is
    byte-identical to an uninterrupted one.
    """
    runs = load_runs(spec, root, with_series=False)
    figures: list[FigureResult] = []
    if not runs:
        return figures
    aggregated = aggregate_by_point(runs, confidence=0.95)
    numeric_axes = [
        axis
        for axis in spec.axes
        if all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in axis.values
        )
    ]
    for axis in numeric_axes:
        slug = axis.field.replace(".", "-").replace("_args", "")
        for metric_name in metrics:
            rows = []
            for point, agg in aggregated:
                if axis.field not in point:
                    continue
                label = ", ".join(
                    f"{f}={v}" for f, v in point.items() if f != axis.field
                ) or "all runs"
                rows.append(
                    (label, float(point[axis.field]), agg[metric_name].mean)
                )
            figures.append(
                figure_from_table(
                    figure_id=f"{slug}--{metric_name}",
                    title=(
                        f"{spec.name}: {metric_name} vs {axis.field} "
                        "(mean over seeds)"
                    ),
                    x_label=axis.field,
                    y_label=metric_name,
                    rows=rows,
                )
            )
    return figures
