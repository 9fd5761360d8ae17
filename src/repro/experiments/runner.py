"""Run one scenario and collect its results."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import BuiltScenario, build_scenario
from repro.metrics.rates import MetricsSummary, summarize
from repro.metrics.timeseries import BandwidthSeries


@dataclass
class ExperimentResult:
    """One run's outputs.

    ``scenario`` is the live simulation object graph and is ``None`` on
    results that crossed a process boundary (see :meth:`detached`); every
    other field is plain picklable data.
    """

    config: ExperimentConfig
    summary: MetricsSummary
    series: BandwidthSeries
    scenario: BuiltScenario | None
    activation_time: float | None
    identified_atrs: set[str] = field(default_factory=set)
    true_atrs: set[str] = field(default_factory=set)
    events_executed: int = 0
    wall_seconds: float = 0.0

    def detached(self) -> "ExperimentResult":
        """A copy without the (unpicklable) scenario object graph."""
        return replace(self, scenario=None)

    @property
    def atr_precision(self) -> float:
        """Fraction of identified ATRs that truly carried attack flows."""
        if not self.identified_atrs:
            return 0.0
        return len(self.identified_atrs & self.true_atrs) / len(self.identified_atrs)

    @property
    def atr_recall(self) -> float:
        """Fraction of true ATRs that were identified."""
        if not self.true_atrs:
            return 1.0
        return len(self.identified_atrs & self.true_atrs) / len(self.true_atrs)


def run_experiment(
    config: ExperimentConfig,
    scenario: BuiltScenario | None = None,
    series_bin_width: float = 0.05,
    bus=None,
    slice_seconds: float | None = None,
    on_slice: Callable[[float], None] | None = None,
) -> ExperimentResult:
    """Build (unless given), run to ``config.duration``, and summarize.

    The packet free-list pool is enabled for the duration of the run:
    the simulation never retains a delivered or dropped packet, so
    recycling is safe here, while unit tests that hold raw packets run
    with the pool off.

    ``series_bin_width`` is the Fig. 4(b) bin the scenario's victim
    collector streams into; a caller-built ``scenario`` already owns its
    collector, and with it the bin width.

    Observability (all off by default, and provably free when off —
    the golden master pins every combination bit-exact):

    ``bus``
        An :class:`~repro.obs.bus.EventBus` (or a bare sink); the
        scenario's collectors, monitor, and victim-side links publish
        onto it, and the runner brackets the run with
        ``run.started``/``run.completed`` events — all through one
        :class:`~repro.obs.bus.RunBatch`, flushed before every
        ``on_slice``, when the simulation stops (also by raising) and
        after ``run.completed``.  A caller-built ``scenario`` publishes
        unbatched on the bus it was built with.
    ``slice_seconds`` / ``on_slice``
        Execute the run in clock slices of at most ``slice_seconds``
        simulated seconds, invoking ``on_slice(sim_now)`` between
        slices.  Slicing runs the *identical* event sequence (the event
        loop just pauses at slice boundaries); the serve layer uses it
        for wall-clock pacing and Ctrl-C responsiveness.
    """
    from repro.sim.packet import enable_packet_pool, reset_packet_ids

    batch = None
    if bus and scenario is None:
        from repro.obs.bus import RunBatch

        batch = bus = RunBatch(bus)

    reset_packet_ids()
    enable_packet_pool(True)
    try:
        if scenario is None:
            scenario = build_scenario(
                config, bus=bus, series_bin_width=series_bin_width
            )
        if bus:
            _emit_run_started(bus, config)
        started = time.perf_counter()
        if slice_seconds is None and on_slice is None:
            scenario.sim.run(until=config.duration)
        else:
            _run_sliced(
                scenario.sim, config.duration, slice_seconds, on_slice, batch
            )
        wall = time.perf_counter() - started
    finally:
        enable_packet_pool(False)
        if batch is not None:
            batch.flush()

    victim = scenario.victim_collector
    summary = summarize(scenario.defense_collector, victim)
    identified = set(scenario.coordinator.started_atrs)
    result = ExperimentResult(
        config=config,
        summary=summary,
        series=victim.series.finish(),
        scenario=scenario,
        activation_time=victim.defense_activated_at,
        identified_atrs=identified,
        true_atrs=scenario.attack.atr_ground_truth,
        events_executed=scenario.sim.events_executed,
        wall_seconds=wall,
    )
    if bus:
        _emit_run_completed(bus, result)
        if batch is not None:
            batch.flush()
    return result


def _run_sliced(sim, duration: float, slice_seconds, on_slice, batch) -> None:
    """Advance the clock in bounded slices, pausing between them.

    ``sim.run(until=t)`` executes every event with time <= t and leaves
    the queue untouched otherwise, so repeated calls execute exactly the
    events a single ``run(until=duration)`` would, in the same order.
    ``batch`` is flushed first at each pause, so what ``on_slice`` reads
    from a sink is current to ``sim.now``.
    """
    step = 0.05 if slice_seconds is None else float(slice_seconds)
    if step <= 0:
        raise ValueError("slice_seconds must be positive")
    t = 0.0
    while t < duration:
        t = min(t + step, duration)
        sim.run(until=t)
        if on_slice is not None:
            if batch is not None:
                batch.flush()
            on_slice(sim.now)


def _emit_run_started(bus, config: ExperimentConfig) -> None:
    from repro.obs.events import RunStarted
    from repro.sim._core import ENGINE_IMPL

    bus.emit(RunStarted(
        time=0.0,
        run_id=config.config_hash(),
        seed=config.seed,
        scenario=(
            f"{config.topology}/{config.workload}/"
            f"{config.attack}/{config.defense}"
        ),
        duration=config.duration,
        engine=ENGINE_IMPL,
    ))


def _emit_run_completed(bus, result: ExperimentResult) -> None:
    from repro.obs.events import RunCompleted

    pct = result.summary.as_percent()
    bus.emit(RunCompleted(
        time=result.config.duration,
        run_id=result.config.config_hash(),
        seed=result.config.seed,
        alpha=pct["alpha"],
        beta=pct["beta"],
        theta_p=pct["theta_p"],
        theta_n=pct["theta_n"],
        lr=pct["Lr"],
        events_executed=result.events_executed,
        wall_seconds=result.wall_seconds,
    ))
