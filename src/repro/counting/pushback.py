"""Victim detection, ATR identification, and pushback signalling.

Closes the loop of Section II: when an epoch's ``|Dj|`` at the victim's
last-hop router is abnormally high, inspect column j of the traffic
matrix and name every ingress i whose contribution ``a_ij`` exceeds a
share threshold an *Attack Transit Router*.  The coordinator then sends a
pushback request to each ATR (activating its MAFIC dropper) and a stop
when the overload clears.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.util.validation import (
    check_fields, check_fraction, check_int, check_non_negative, check_positive,
    declared,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.monitor import MatrixSnapshot


@dataclass(frozen=True)
class PushbackRequest:
    """One pushback command to an ATR."""

    time: float
    atr_name: str
    victim_router: str
    action: str  # "start" | "refresh" | "stop"
    estimated_share: float = 0.0


@dataclass
class AtrReport:
    """Identification outcome for one monitoring epoch."""

    time: float
    victim_router: str
    egress_estimate: float
    threshold: float
    atr_names: list[str] = field(default_factory=list)
    shares: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PushbackPolicyConfig:
    """Knobs of the detection/identification policy.

    ``overload_factor`` scales the baseline egress estimate into the alarm
    threshold; ``baseline_rate`` seeds the baseline before any calm epoch
    has been observed.  ``share_threshold`` is the minimum fraction of the
    victim's traffic an ingress must contribute to be named an ATR.
    ``min_absolute`` guards against naming ATRs from sketch noise when the
    victim sees almost nothing.
    """

    overload_factor: float = declared(3.0, check_positive)
    share_threshold: float = declared(0.05, check_fraction)
    baseline_rate: float = declared(500.0, check_positive)  # calm packets/epoch
    min_absolute: float = declared(50.0, check_non_negative)
    hysteresis_epochs: int = declared(2, check_int, 1)  # calm epochs before "stop"
    warmup_epochs: int = declared(3, check_int, 0)  # alarm-free, learn the baseline
    calm_band: float = declared(1.5, check_positive)  # learn if egress <= band*base

    def __post_init__(self) -> None:
        check_fields(self)
        if self.calm_band < 1.0:
            raise ValueError("calm_band must be >= 1")
        if self.calm_band >= self.overload_factor:
            raise ValueError(
                "calm_band must sit below overload_factor, otherwise the "
                "baseline absorbs an incipient attack before it can alarm"
            )


class PushbackCoordinator:
    """Watches matrix snapshots and drives ATR activation.

    Wire ``on_request`` to the control plane (in the full simulation, a
    callback that activates/deactivates the MAFIC agent at the named
    ingress router).  The coordinator keeps an EWMA baseline of the
    victim's calm-time egress volume, raises pushback when the epoch
    estimate exceeds ``overload_factor x baseline``, refreshes ATR sets
    while the attack persists, and stops after ``hysteresis_epochs`` calm
    epochs.
    """

    def __init__(
        self,
        victim_router: str,
        config: PushbackPolicyConfig | None = None,
        on_request: Callable[[PushbackRequest], None] | None = None,
    ) -> None:
        self.victim_router = victim_router
        self.config = config if config is not None else PushbackPolicyConfig()
        self.on_request = on_request
        self.active = False
        self.active_atrs: set[str] = set()
        # repro: allow[write-only-state] one per overload epoch, for callers
        self.reports: list[AtrReport] = []
        self.requests: list[PushbackRequest] = []
        self._baseline = self.config.baseline_rate
        self._calm_epochs = 0
        self._epochs_seen = 0

    @property
    def baseline(self) -> float:
        """Current calm-traffic baseline (packets/epoch)."""
        return self._baseline

    def on_snapshot(self, snapshot: "MatrixSnapshot") -> None:
        """Process one TrafficMonitor epoch."""
        egress = snapshot.egress_totals.get(self.victim_router)
        if egress is None:
            return
        self._epochs_seen += 1
        if self._epochs_seen <= self.config.warmup_epochs:
            # Warm-up: learn the calm baseline aggressively, never alarm.
            if self._epochs_seen == 1:
                self._baseline = max(egress, 1.0)
            else:
                self._baseline += 0.5 * (egress - self._baseline)
            return
        threshold = max(
            self.config.overload_factor * self._baseline, self.config.min_absolute
        )
        if egress > threshold:
            self._calm_epochs = 0
            report = self._identify(snapshot, egress, threshold)
            self.reports.append(report)
            self._activate(report)
        else:
            # Calm epoch: learn the baseline (guarded against absorbing a
            # ramping attack), maybe stand down.
            if egress <= self.config.calm_band * self._baseline:
                self._baseline += 0.25 * (egress - self._baseline)
            if self.active:
                self._calm_epochs += 1
                if self._calm_epochs >= self.config.hysteresis_epochs:
                    self._deactivate(snapshot.time)

    def _identify(
        self, snapshot: "MatrixSnapshot", egress: float, threshold: float
    ) -> AtrReport:
        report = AtrReport(
            time=snapshot.time,
            victim_router=self.victim_router,
            egress_estimate=egress,
            threshold=threshold,
        )
        if self.victim_router not in snapshot.destinations:
            return report
        col = snapshot.destinations.index(self.victim_router)
        for row, ingress in enumerate(snapshot.sources):
            contribution = snapshot.matrix[row][col]
            share = contribution / egress if egress > 0 else 0.0
            report.shares[ingress] = share
            if share >= self.config.share_threshold and contribution >= self.config.min_absolute:
                report.atr_names.append(ingress)
        return report

    def _activate(self, report: AtrReport) -> None:
        newly = set(report.atr_names) - self.active_atrs
        refreshed = set(report.atr_names) & self.active_atrs
        for name in sorted(newly):
            self._send(report.time, name, "start", report.shares.get(name, 0.0))
        for name in sorted(refreshed):
            self._send(report.time, name, "refresh", report.shares.get(name, 0.0))
        self.active_atrs |= newly
        self.active = bool(self.active_atrs)

    def _deactivate(self, time: float) -> None:
        for name in sorted(self.active_atrs):
            self._send(time, name, "stop", 0.0)
        self.active_atrs.clear()
        self.active = False
        self._calm_epochs = 0

    def _send(self, time: float, atr: str, action: str, share: float) -> None:
        request = PushbackRequest(
            time=time,
            atr_name=atr,
            victim_router=self.victim_router,
            action=action,
            estimated_share=share,
        )
        self.requests.append(request)
        if self.on_request is not None:
            self.on_request(request)
