"""Parallel experiment execution: fan seeds/sweep points out to workers.

MAFIC's evaluation is built from repeated stochastic runs — multi-seed
confidence intervals and parameter sweeps — which are embarrassingly
parallel: every run is fully determined by its :class:`ExperimentConfig`
(the seed drives every random stream) and shares no state with its
neighbours.  :func:`run_batch` executes a list of configs either serially
in-process or across a :class:`~concurrent.futures.ProcessPoolExecutor`,
and **both paths produce bit-identical per-run summaries**: workers call
the exact same :func:`~repro.experiments.runner.run_experiment` the
serial path does.

Workers return :meth:`~repro.experiments.runner.ExperimentResult.detached`
results (summary, series, counters — everything except the live
simulation object graph, which cannot cross a process boundary) plus a
per-chunk :class:`~repro.util.stats.RunningStats` partial for each
headline metric; the parent folds the partials with
:meth:`RunningStats.merge`, so metric aggregation never re-walks the
per-run data.

Quick use::

    from repro.experiments.parallel import run_batch, seed_configs

    batch = run_batch(seed_configs(config, [1, 2, 3, 4]), jobs=4)
    print(batch.stats["accuracy"].mean)
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.util.stats import RunningStats


#: MetricsSummary fields folded into per-chunk partials (the paper's five
#: headline rates).
METRIC_NAMES: tuple[str, ...] = (
    "accuracy",
    "traffic_reduction",
    "false_positive_rate",
    "false_negative_rate",
    "legit_drop_rate",
)


@dataclass
class _ChunkOutput:
    """What one worker chunk sends back (everything picklable)."""

    results: list[ExperimentResult]
    partials: dict[str, RunningStats]
    wall_seconds: float


@dataclass
class BatchResult:
    """All runs of one batch, in input order, plus merged metric stats."""

    results: list[ExperimentResult]
    stats: dict[str, RunningStats] = field(default_factory=dict)
    jobs: int = 1
    chunks: int = 1
    wall_seconds: float = 0.0

    @property
    def summaries(self):
        """The per-run :class:`MetricsSummary` objects, in input order."""
        return [run.summary for run in self.results]

    def ys(self, metric: Callable[[ExperimentResult], float]) -> list[float]:
        """Extract one metric across the batch."""
        return [metric(run) for run in self.results]


def default_jobs() -> int:
    """Worker count when the caller doesn't choose: one per CPU."""
    return max(1, os.cpu_count() or 1)


def seed_configs(
    config: ExperimentConfig, seeds: Iterable[int]
) -> list[ExperimentConfig]:
    """One config per seed — the multi-seed confidence batch."""
    return [config.with_overrides(seed=int(seed)) for seed in seeds]


def _run_chunk(
    configs: list[ExperimentConfig], series_bin_width: float
) -> _ChunkOutput:
    """Worker entry: run a contiguous slice of the batch.

    Must stay a module-level function so the executor can pickle it.
    """
    started = time.perf_counter()
    partials = {name: RunningStats() for name in METRIC_NAMES}
    results = []
    for config in configs:
        result = run_experiment(config, series_bin_width=series_bin_width)
        for name, stats in partials.items():
            stats.update(getattr(result.summary, name))
        results.append(result.detached())
    return _ChunkOutput(
        results=results,
        partials=partials,
        wall_seconds=time.perf_counter() - started,
    )


def _worker_init() -> None:
    """Leave SIGINT handling to the parent.

    A terminal Ctrl-C delivers SIGINT to the whole foreground process
    group; without this, every worker dies mid-run with its own
    KeyboardInterrupt traceback while the parent is trying to shut the
    pool down cleanly.  Ignoring it in workers makes the parent the
    single interruption point — it cancels undispatched chunks and lets
    in-flight ones finish, so no artifact is ever half-written.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _chunk_slices(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n_items)`` into up to ``n_chunks`` contiguous slices."""
    n_chunks = max(1, min(n_chunks, n_items))
    base, extra = divmod(n_items, n_chunks)
    slices = []
    start = 0
    for i in range(n_chunks):
        stop = start + base + (1 if i < extra else 0)
        slices.append((start, stop))
        start = stop
    return slices


def run_batch(
    configs: Sequence[ExperimentConfig],
    jobs: int | None = None,
    series_bin_width: float = 0.05,
    chunks_per_job: int = 2,
) -> BatchResult:
    """Run every config and fold the headline metrics.

    ``jobs`` is the worker-process count (default: CPU count); ``jobs=1``
    runs serially in-process with no executor.  ``chunks_per_job``
    controls load balancing: more chunks per worker smooths out uneven
    run times at slightly higher pickling overhead.  Results come back in
    input order and are identical to a serial run of the same configs.

    Results live in memory only; runs that should persist, resume and
    survive a dying worker are a campaign (:mod:`repro.campaign`).
    """
    if not configs:
        raise ValueError("configs must be non-empty")
    jobs = default_jobs() if jobs is None else int(jobs)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    started = time.perf_counter()

    jobs = min(jobs, len(configs))
    slices = _chunk_slices(len(configs), jobs * max(1, chunks_per_job))
    if jobs == 1:
        outputs = [
            _run_chunk(list(configs[start:stop]), series_bin_width)
            for start, stop in slices
        ]
    else:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_worker_init
        ) as pool:
            futures = [
                pool.submit(
                    _run_chunk, list(configs[start:stop]), series_bin_width
                )
                for start, stop in slices
            ]
            try:
                outputs = [future.result() for future in futures]
            except KeyboardInterrupt:
                # Undispatched chunks are cancelled; chunks already
                # on a worker run to completion (workers ignore
                # SIGINT) but their results are abandoned — the
                # caller decides what "interrupted" means.
                for future in futures:
                    future.cancel()
                raise

    results: list[ExperimentResult] = []
    merged = {name: RunningStats() for name in METRIC_NAMES}
    for out in outputs:
        results.extend(out.results)
        for name, partial in out.partials.items():
            merged[name] = merged[name].merge(partial)
    return BatchResult(
        results=results,
        stats=merged,
        jobs=jobs,
        chunks=len(slices),
        wall_seconds=time.perf_counter() - started,
    )


def run_seeds_parallel(
    config: ExperimentConfig,
    seeds: Iterable[int],
    jobs: int | None = None,
    series_bin_width: float = 0.05,
) -> BatchResult:
    """Multi-seed batch: ``config`` once per seed, fanned across workers."""
    return run_batch(
        seed_configs(config, seeds),
        jobs=jobs,
        series_bin_width=series_bin_width,
    )
