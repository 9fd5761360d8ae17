"""Multi-seed aggregation of experiment results.

One seed gives one sample of each metric; :func:`run_seeds` runs a config
across seeds and :func:`aggregate_runs` folds the samples into means with
Student-t confidence intervals (the t quantile is computed here, so the
same store reports the same half-widths on every host).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.util.stats import RunningStats

_METRIC_NAMES = (
    "accuracy",
    "traffic_reduction",
    "false_positive_rate",
    "false_negative_rate",
    "legit_drop_rate",
)


@dataclass
class MetricStats:
    """Mean, spread, and confidence half-width of one metric."""

    name: str
    mean: float
    stddev: float
    n: int
    ci_halfwidth: float

    @property
    def low(self) -> float:
        """Lower confidence bound."""
        return self.mean - self.ci_halfwidth

    @property
    def high(self) -> float:
        """Upper confidence bound."""
        return self.mean + self.ci_halfwidth


@dataclass
class AggregatedMetrics:
    """All five paper metrics aggregated over seeds."""

    metrics: dict[str, MetricStats] = field(default_factory=dict)
    n_runs: int = 0

    def __getitem__(self, name: str) -> MetricStats:
        return self.metrics[name]

    def as_percent_table(self) -> str:
        """Formatted 'metric  mean% +/- ci%' table."""
        lines = [f"{'metric':<22} {'mean%':>9} {'+/-':>8}  (n={self.n_runs})"]
        for name in _METRIC_NAMES:
            stats = self.metrics[name]
            lines.append(
                f"{name:<22} {100 * stats.mean:>9.3f} "
                f"{100 * stats.ci_halfwidth:>8.3f}"
            )
        return "\n".join(lines)


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), for 0 <= x <= 1."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        # The continued fraction converges fast only below the mean.
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    ) / a
    # Modified Lentz evaluation of the continued fraction (NR 6.4).
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    fraction = d
    for m in range(1, 500):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            fraction *= d * c
        if abs(d * c - 1.0) < 3e-16:
            break
    return front * fraction


def _t_critical(df: int, confidence: float) -> float:
    """Two-sided Student-t critical value: P(|T_df| <= t) = ``confidence``.

    Self-contained (``math`` only).  The two-sided tail is an incomplete
    beta function, P(|T| > t) = I_x(df/2, 1/2) at x = df / (df + t^2);
    it is convex and decreasing in t >= 0, so Newton's iteration from
    t = 0 climbs to the root without overshooting.
    """
    # The upper-tail mass, through the same rounding of
    # ``0.5 + confidence / 2`` a quantile-function call would be handed.
    tail = 1.0 - (0.5 + confidence / 2.0)
    if df == 1:
        # Cauchy: the quantile has a closed form, good to the last bit
        # (two seeds, the smallest campaign, lands here).
        return 1.0 / math.tan(math.pi * tail)
    half = df / 2.0
    log_density_at_0 = (
        math.lgamma(half + 0.5) - math.lgamma(half) - 0.5 * math.log(df * math.pi)
    )
    t = 0.0
    for _ in range(100):
        excess = _betainc(half, 0.5, df / (df + t * t)) - 2.0 * tail
        density = math.exp(log_density_at_0 - (half + 0.5) * math.log1p(t * t / df))
        step = excess / (2.0 * density)
        t += step
        # Convergence is quadratic: a step this small leaves an error far
        # below one ulp, and a tighter test would chase rounding noise.
        if abs(step) <= 1e-9 * t:
            break
    return t


def run_seeds(
    config: ExperimentConfig, seeds: list[int], jobs: int | None = 1
) -> list[ExperimentResult]:
    """Run ``config`` once per seed.

    ``jobs > 1`` fans the seeds out to worker processes: the per-seed
    summaries are bit-identical to a serial run, but the returned results
    are detached (``scenario`` is ``None`` — it cannot cross the process
    boundary).  ``jobs=None`` or ``1`` stays serial and in-process with
    live scenarios, matching :func:`repro.experiments.sweeps.sweep`.
    """
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if jobs is not None and jobs > 1:
        from repro.experiments.parallel import run_seeds_parallel

        return run_seeds_parallel(config, seeds, jobs=jobs).results
    return [run_experiment(config.with_overrides(seed=s)) for s in seeds]


def aggregate_runs(
    runs: list[ExperimentResult], confidence: float = 0.95
) -> AggregatedMetrics:
    """Fold runs into per-metric means with t confidence intervals."""
    if not runs:
        raise ValueError("runs must be non-empty")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    aggregated = AggregatedMetrics(n_runs=len(runs))
    for name in _METRIC_NAMES:
        stats = RunningStats()
        for run in runs:
            stats.update(getattr(run.summary, name))
        if stats.count >= 2:
            # Sample (not population) stddev for the CI.
            sample_var = stats.variance * stats.count / (stats.count - 1)
            sample_sd = math.sqrt(sample_var)
            halfwidth = (
                _t_critical(stats.count - 1, confidence)
                * sample_sd
                / math.sqrt(stats.count)
            )
        else:
            sample_sd = 0.0
            halfwidth = 0.0
        aggregated.metrics[name] = MetricStats(
            name=name,
            mean=stats.mean,
            stddev=sample_sd,
            n=stats.count,
            ci_halfwidth=halfwidth,
        )
    return aggregated
