"""TrafficMonitor: periodic traffic-matrix computation.

Mirrors the paper's Section IV: "The TrafficMonitor keeps track of all
LogLogCounter objects and for each time period, it will be triggered to
compute the traffic matrix for this time period using the set-union
counting algorithm."

The monitor owns a :class:`~repro.counting.setunion.TrafficMatrixEstimator`
and snapshots it every ``period`` seconds, handing each matrix to the
pushback coordinator (victim detection / ATR identification).  It keeps
only the latest one and a count of epochs: a caller that wants the
history gathers it through ``on_snapshot``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.counting.setunion import TrafficMatrixEstimator
    from repro.sim.engine import Simulator


@dataclass
class MatrixSnapshot:
    """One monitoring epoch's estimated traffic matrix."""

    time: float
    sources: list[str]
    destinations: list[str]
    matrix: list[list[float]]  # matrix[i][j]: sources[i] -> destinations[j]
    ingress_totals: dict[str, float]  # |Si| estimates
    egress_totals: dict[str, float]  # |Dj| estimates


class TrafficMonitor:
    """Periodic driver of the set-union counting estimator.

    Parameters
    ----------
    sim:
        The simulation clock to schedule epochs on.
    estimator:
        The set-union traffic-matrix estimator fed by the per-link
        LogLog counters.
    period:
        Epoch length in seconds.
    on_snapshot:
        Optional callback invoked with each new :class:`MatrixSnapshot`
        (the pushback coordinator registers here).
    reset_each_epoch:
        When True (default, matching the paper's per-period matrices) the
        sketches are cleared after each snapshot.
    bus:
        Optional :class:`~repro.obs.bus.EventBus`: each epoch publishes
        a ``monitor.snapshot`` event plus an ``engine.stats`` event
        (scheduler occupancy piggybacked on the epoch, so observability
        adds **no** simulation events of its own — the event stream,
        and thus the golden master, is unchanged).
    """

    def __init__(
        self,
        sim: "Simulator",
        estimator: "TrafficMatrixEstimator",
        period: float = 0.25,
        on_snapshot: Callable[[MatrixSnapshot], None] | None = None,
        reset_each_epoch: bool = True,
        bus=None,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.estimator = estimator
        self.period = float(period)
        self.on_snapshot = on_snapshot
        self.reset_each_epoch = reset_each_epoch
        self.bus = bus
        #: The most recent snapshot (None before the first epoch).
        self.latest: MatrixSnapshot | None = None
        #: Epochs snapshotted so far.
        self.epochs = 0
        self._started = False

    def start(self, delay: float | None = None) -> None:
        """Begin periodic epochs (first snapshot after one period)."""
        if self._started:
            raise RuntimeError("TrafficMonitor already started")
        self._started = True
        self.sim.schedule(self.period if delay is None else delay, self._tick)

    def _tick(self) -> None:
        snapshot = self.take_snapshot()
        if self.on_snapshot is not None:
            self.on_snapshot(snapshot)
        if self.reset_each_epoch:
            self.estimator.reset()
        self.sim.schedule(self.period, self._tick)

    def take_snapshot(self) -> MatrixSnapshot:
        """Compute the traffic matrix for the current epoch."""
        sources, destinations, matrix = self.estimator.traffic_matrix()
        snapshot = MatrixSnapshot(
            time=self.sim.now,
            sources=sources,
            destinations=destinations,
            matrix=matrix,
            ingress_totals=self.estimator.ingress_totals(),
            egress_totals=self.estimator.egress_totals(),
        )
        self.latest = snapshot
        self.epochs += 1
        if self.bus:
            self._publish(snapshot)
        return snapshot

    def _publish(self, snapshot: MatrixSnapshot) -> None:
        """Emit the epoch's snapshot + scheduler stats onto the bus."""
        bus = self.bus
        if not bus:
            return
        # Imported here, once an epoch: a bus-free run never loads repro.obs.
        from repro.obs.events import EngineStats, MonitorSnapshot

        bus.emit(MonitorSnapshot(
            time=snapshot.time,
            epoch=self.epochs,
            n_sources=len(snapshot.sources),
            n_destinations=len(snapshot.destinations),
            ingress_total=float(sum(snapshot.ingress_totals.values())),
            egress_total=float(sum(snapshot.egress_totals.values())),
        ))
        stats = self.sim.queue_stats()
        bus.emit(EngineStats(
            time=snapshot.time,
            backend=stats["backend"],
            events_executed=self.sim.events_executed,
            pending=stats["live"],
            peak_occupancy=stats["peak_occupancy"],
        ))
