"""Parameter sweeps over :func:`run_experiment`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment


@dataclass
class SweepPoint:
    """One (x, result) pair of a sweep."""

    x: float
    result: ExperimentResult


@dataclass
class SweepResult:
    """A named series of sweep points."""

    name: str
    x_values: list[float]
    points: list[SweepPoint] = field(default_factory=list)

    def ys(self, metric: Callable[[ExperimentResult], float]) -> list[float]:
        """Extract one metric across the sweep."""
        return [metric(point.result) for point in self.points]

    def pairs(self, metric: Callable[[ExperimentResult], float]) -> list[tuple[float, float]]:
        """(x, metric) pairs."""
        return [(point.x, metric(point.result)) for point in self.points]


def sweep(
    base: ExperimentConfig,
    x_values: list[float],
    apply: Callable[[ExperimentConfig, float], ExperimentConfig],
    name: str = "sweep",
    seeds_per_point: int = 1,
    reduce: Callable[[list[ExperimentResult]], ExperimentResult] | None = None,
    jobs: int | None = None,
) -> SweepResult:
    """Run ``base`` once per x value (optionally averaging over seeds).

    ``apply(config, x)`` returns the config for that x.  With
    ``seeds_per_point > 1`` each point runs several seeds and ``reduce``
    picks the representative result (default: the first); metric
    averaging across seeds is the caller's job via :meth:`SweepResult.ys`
    on individual sweeps if needed — keeping this simple and explicit.

    ``jobs`` fans the (x, seed) grid out to worker processes via
    :func:`repro.experiments.parallel.run_batch`; every run is seeded
    independently, so the parallel sweep reproduces the serial per-run
    summaries bit-for-bit.  Parallel results are detached, though —
    ``result.scenario`` is ``None`` (the live object graph cannot cross
    the process boundary), so a ``reduce`` hook must not rely on it when
    ``jobs > 1``.  ``jobs=None`` or ``1`` keeps the classic serial loop.
    """
    if not x_values:
        raise ValueError("x_values must be non-empty")
    if seeds_per_point < 1:
        raise ValueError("seeds_per_point must be >= 1")
    result = SweepResult(name=name, x_values=list(x_values))

    if jobs is not None and jobs > 1:
        from repro.experiments.parallel import run_batch

        grid = []
        for x in x_values:
            config = apply(base, x)
            grid.extend(
                config.with_overrides(seed=config.seed + offset)
                for offset in range(seeds_per_point)
            )
        batch = run_batch(grid, jobs=jobs)
        for i, x in enumerate(x_values):
            runs = batch.results[i * seeds_per_point : (i + 1) * seeds_per_point]
            chosen = reduce(runs) if reduce is not None else runs[0]
            result.points.append(SweepPoint(x=float(x), result=chosen))
        return result

    for x in x_values:
        config = apply(base, x)
        runs = [
            run_experiment(config.with_overrides(seed=config.seed + offset))
            for offset in range(seeds_per_point)
        ]
        chosen = reduce(runs) if reduce is not None else runs[0]
        result.points.append(SweepPoint(x=float(x), result=chosen))
    return result


def mean_of(metric: Callable[[ExperimentResult], float]) -> Callable[[list[ExperimentResult]], float]:
    """Helper: average a metric across multi-seed runs."""

    def fold(runs: list[ExperimentResult]) -> float:
        values = [metric(run) for run in runs]
        return sum(values) / len(values)

    return fold
