"""Per-figure reproduction entry points.

Each row of :data:`FIGURES` is one figure of the paper's evaluation as a
campaign grid: a series axis crossed with an x axis, at one seed.
:func:`run_figure` expands the row's
:class:`~repro.campaign.spec.CampaignSpec` and runs its plan in order,
returning a :class:`FigureResult` whose series carry the same x axis and
legend the published plot uses.  ``scale`` (default 1.0) thins the x axis
for quick runs; shapes survive, wall time drops.

Figure inventory (see DESIGN.md section 4):

========  ==========================================================
fig3a     accuracy α vs Vt, series Pd ∈ {70, 80, 90}%
fig3b     accuracy α vs Vt, series R ∈ {100k, 500k, 1M} bps
fig4a     traffic reduction β vs Vt, series Pd
fig4b     victim bandwidth vs time, series Vt ∈ {10, 30, 50}
fig5a     false positive θp vs Vt, series Pd
fig5b     θp vs Γ (TCP share), series Vt ∈ {30, 70, 100}
fig5c     θp vs domain size N, series Γ ∈ {35, 55, 75, 95}%
fig6a     false negative θn vs Vt, series Pd
fig6b     θn vs Γ, series Vt
fig6c     θn vs N, series Γ
fig7      legit drop rate Lr vs Vt, series Pd
========  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.experiments.runner import ExperimentResult, run_experiment

if TYPE_CHECKING:
    from repro.campaign.spec import CampaignSpec, PlannedRun

# The figures' canonical axes: (config field, values, x shown x100).
_VT_AXIS = ("total_flows", (10, 30, 50, 70, 90, 110), False)
_GAMMA_AXIS = ("tcp_fraction", (0.15, 0.35, 0.55, 0.75, 0.95), True)
_N_AXIS = ("n_routers", (20, 40, 80, 120, 160), False)
# ... and series: (config field, ((legend label, value), ...)).
_PD_SERIES = (
    "mafic.drop_probability",
    (("Pd=90%", 0.90), ("Pd=80%", 0.80), ("Pd=70%", 0.70)),
)
_VT_SERIES = ("total_flows", (("Vt=30", 30), ("Vt=70", 70), ("Vt=100", 100)))
_GAMMA_SERIES = (
    "tcp_fraction",
    (("TCP=95%", 0.95), ("TCP=75%", 0.75), ("TCP=55%", 0.55), ("TCP=35%", 0.35)),
)

_VT_LABEL = "Total Traffic Volume (No. of Flows)"
_GAMMA_LABEL = "Percentage of TCP Traffic (%)"
_N_LABEL = "Domain Size (No. of Routers)"
_ALPHA = "Attacking Packets Dropping Accuracy (%)"
_THETA_P = "False Positive Rate (%)"
_THETA_N = "False Negative Rate (%)"


@dataclass
class FigureResult:
    """One reproduced figure: named series over a shared x axis."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    #: fig4b's runs, one per series, for their time series and activation
    #: time; an axis figure keeps only its points.
    runs: dict[str, list[ExperimentResult]] = field(default_factory=dict)

    def add_point(self, series_name: str, x: float, y: float) -> None:
        """Append one (x, y) point to a series."""
        self.series.setdefault(series_name, []).append((x, y))

    def ys(self, series_name: str) -> list[float]:
        """The y values of one series."""
        return [y for _, y in self.series[series_name]]


def figure_from_table(
    figure_id: str,
    title: str,
    x_label: str,
    y_label: str,
    rows: Iterable[tuple[str, float, float]],
) -> FigureResult:
    """Assemble a :class:`FigureResult` from ``(series, x, y)`` rows.

    The store-backed regeneration path: ``campaign figures`` rebuilds
    each figure from summary artifacts through this instead of
    re-simulating, and anything that can tabulate (series, x, y) can
    reuse the figure reporting/export machinery the same way.  Rows
    carry no runs, so the result's ``runs`` dict stays empty.
    """
    figure = FigureResult(
        figure_id=figure_id, title=title, x_label=x_label, y_label=y_label
    )
    for series_name, x, y in rows:
        figure.add_point(series_name, x, y)
    return figure


def _scaled(values: list, scale: float) -> list:
    """Thin a sweep axis for quick runs (always keeps ends)."""
    if scale >= 1.0 or len(values) <= 2:
        return list(values)
    keep = max(2, round(len(values) * scale))
    if keep >= len(values):
        return list(values)
    step = (len(values) - 1) / (keep - 1)
    indices = sorted({round(i * step) for i in range(keep)})
    return [values[i] for i in indices]


@dataclass(frozen=True)
class PaperFigure:
    """One figure of the paper as a grid: ``series`` by ``x``, one seed.

    ``x`` is None only for fig4b, whose x is each run's own time axis.
    ``metric`` is the :class:`~repro.metrics.rates.MetricsSummary`
    attribute plotted as a percentage (the names of
    ``campaign.query.REPORT_METRICS``).
    """

    id: str
    doc: str
    title: str
    x_label: str
    y_label: str
    seed: int
    series: tuple[str, tuple[tuple[str, object], ...]]
    x: tuple[str, tuple, bool] | None
    metric: str | None
    base: dict = field(default_factory=dict)

    def spec(self, scale: float = 1.0) -> "CampaignSpec":
        """The figure's grid as a campaign spec, its x axis thinned by ``scale``."""
        # Imported here: a plain `repro run` must not load repro.campaign.
        from repro.campaign.spec import CampaignSpec

        series_field, pairs = self.series
        axes = [{"field": series_field, "values": tuple(v for _, v in pairs)}]
        if self.x is not None:
            x_field, values, _ = self.x
            axes.append({"field": x_field, "values": tuple(_scaled(values, scale))})
        return CampaignSpec(
            name=self.id, seeds=(self.seed,), base=dict(self.base), axes=tuple(axes)
        )

    def cells(self, scale: float = 1.0) -> list[tuple[str, object, "PlannedRun"]]:
        """``(series label, x, planned run)`` in plan order (series outer)."""
        series_field, pairs = self.series
        labels = {value: label for label, value in pairs}
        cells = []
        for planned in self.spec(scale).plan():
            x = None
            if self.x is not None:
                x_field, _, percent = self.x
                x = planned.point[x_field]
                x = 100.0 * x if percent else x
            cells.append((labels[planned.point[series_field]], x, planned))
        return cells


FIGURES: dict[str, PaperFigure] = {
    figure.id: figure
    for figure in (
        PaperFigure(
            "fig3a", "Attack-packet dropping accuracy vs traffic volume, by Pd.",
            "Attack packet dropping accuracy under three dropping probabilities",
            _VT_LABEL, _ALPHA, 11, _PD_SERIES, _VT_AXIS, "accuracy",
        ),
        # Evaluates the *dropping policy* across source rates, not the
        # detector's sensitivity: at 100 kbps per zombie the flood adds too
        # little volume for a threshold detector to see, but the paper still
        # reports ~99% accuracy.  So the victim's DDoS notification is
        # modelled explicitly (``force_activation_at``), the "on receiving
        # the notification of DDoS attack from the victim router" trigger of
        # Section III.A.
        PaperFigure(
            "fig3b", "Attack-packet dropping accuracy vs traffic volume, by source rate.",
            "Attack packet dropping accuracy under three source rates",
            _VT_LABEL, _ALPHA, 12,
            ("rate_bps", (("R=100k", 100e3), ("R=500k", 500e3), ("R=1M", 1e6))),
            _VT_AXIS, "accuracy", {"force_activation_at": 1.25},
        ),
        PaperFigure(
            "fig4a", "Traffic reduction rate vs traffic volume, by Pd.",
            "Traffic reduction rate under three dropping probabilities",
            _VT_LABEL, "Traffic Reduction Rate (%)", 13, _PD_SERIES, _VT_AXIS,
            "traffic_reduction",
        ),
        PaperFigure(
            "fig4b", "Victim-arrival bandwidth over time for Vt in {10, 30, 50}.",
            "Flow bandwidth variation while MAFIC engages",
            "Time (second)", "Flow Bandwidth (kbps)", 14,
            ("total_flows", (("Vt=10", 10), ("Vt=30", 30), ("Vt=50", 50))),
            None, None,
        ),
        PaperFigure(
            "fig5a", "False positive rate vs traffic volume, by Pd.",
            "False positive rate under three dropping probabilities",
            _VT_LABEL, _THETA_P, 15, _PD_SERIES, _VT_AXIS, "false_positive_rate",
        ),
        PaperFigure(
            "fig5b", "False positive rate vs TCP share, by traffic volume.",
            "False positive rate vs TCP share",
            _GAMMA_LABEL, _THETA_P, 16, _VT_SERIES, _GAMMA_AXIS,
            "false_positive_rate",
        ),
        PaperFigure(
            "fig5c", "False positive rate vs domain size, by TCP share.",
            "False positive rate vs domain size",
            _N_LABEL, _THETA_P, 17, _GAMMA_SERIES, _N_AXIS, "false_positive_rate",
        ),
        PaperFigure(
            "fig6a", "False negative rate vs traffic volume, by Pd.",
            "False negative rate under three dropping probabilities",
            _VT_LABEL, _THETA_N, 18, _PD_SERIES, _VT_AXIS, "false_negative_rate",
        ),
        PaperFigure(
            "fig6b", "False negative rate vs TCP share, by traffic volume.",
            "False negative rate vs TCP share",
            _GAMMA_LABEL, _THETA_N, 19, _VT_SERIES, _GAMMA_AXIS,
            "false_negative_rate",
        ),
        PaperFigure(
            "fig6c", "False negative rate vs domain size, by TCP share.",
            "False negative rate vs domain size",
            _N_LABEL, _THETA_N, 20, _GAMMA_SERIES, _N_AXIS, "false_negative_rate",
        ),
        PaperFigure(
            "fig7", "Legitimate-packet dropping rate vs traffic volume, by Pd.",
            "Legitimate packet dropping rate under three dropping probabilities",
            _VT_LABEL, "Legitimate Packet Dropping Rate (%)", 21, _PD_SERIES,
            _VT_AXIS, "legit_drop_rate",
        ),
    )
}


def run_figure(name: str, scale: float = 1.0) -> FigureResult:
    """Run one figure's grid, cell by cell in plan order.

    ``scale`` thins the x axis only.  Run duration is never scaled: the
    duration-sensitive metrics (Lr, theta_n) are ratios of a fixed
    probing cost to the defence-active period, so shortening runs would
    change the numbers, not just the resolution.
    """
    figure = FIGURES[name]
    result = FigureResult(name, figure.title, figure.x_label, figure.y_label)
    for label, x, planned in figure.cells(scale):
        if figure.x is None:
            run = run_experiment(planned.config, series_bin_width=0.05)
            for t, kbps in zip(run.series.times, run.series.total_kbps):
                result.add_point(label, t, kbps)
            result.runs.setdefault(label, []).append(run)
        else:
            summary = run_experiment(planned.config).summary
            result.add_point(label, x, 100.0 * getattr(summary, figure.metric))
    return result
