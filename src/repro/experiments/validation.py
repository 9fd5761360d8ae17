"""Scenario feasibility checks.

The threshold detector only fires when the flood stands out against the
legitimate baseline; several axes of the paper's sweeps (very low attack
rates, very fast legitimate TCP in small domains) can silently put a
configuration below detection sensitivity, producing all-zero metrics
that look like a broken defence.  :func:`validate_config` estimates the
attack-to-baseline ratio up front and reports actionable findings.
Argument range checks that raise are :mod:`repro.util.validation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.experiments.config import DefenseKind, ExperimentConfig


class Severity(Enum):
    """How bad a finding is."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


@dataclass
class Finding:
    """One validation finding."""

    severity: Severity
    code: str
    message: str


@dataclass
class ValidationReport:
    """All findings for one config."""

    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing rose above WARNING."""
        return all(f.severity is not Severity.ERROR for f in self.findings)

    def has(self, code: str) -> bool:
        """Whether a finding with this code is present."""
        return any(f.code == code for f in self.findings)

    def __iter__(self):
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)


def _estimate_path_rtt(config: ExperimentConfig) -> float:
    """Rough victim<->source RTT for the configured topology."""
    # host links (1 ms each side) + the hop count each registered
    # topology declares about itself (``hops_one_way`` registry meta).
    from repro.sim.topology import TOPOLOGIES

    hops_one_way = TOPOLOGIES.spec(config.topology).meta.get("hops_one_way", 4)
    one_way = 0.002 + hops_one_way * config.link_delay
    return 2 * one_way


def validate_config(config: ExperimentConfig) -> ValidationReport:
    """Check a configuration for feasibility pitfalls."""
    report = ValidationReport()

    # --- Detection sensitivity ------------------------------------------
    rtt = _estimate_path_rtt(config)
    tcp_rate_pps = config.tcp_max_cwnd / max(1e-6, rtt)
    udp_rate_pps = config.legit_rate_bps / (config.packet_size * 8)
    attack_rate_pps = config.rate_bps / (config.packet_size * 8)
    legit_pps = config.n_tcp * tcp_rate_pps + config.n_udp_legit * udp_rate_pps
    attack_pps = config.n_zombies * attack_rate_pps
    if legit_pps > 0:
        ratio = (legit_pps + attack_pps) / legit_pps
        needed = config.pushback.overload_factor
        if config.force_activation_at is None and config.defense is not DefenseKind.NONE:
            if ratio < needed:
                report.findings.append(Finding(
                    Severity.ERROR,
                    "detection-infeasible",
                    f"estimated flood-to-baseline ratio {ratio:.2f} is below "
                    f"the overload factor {needed:.2f}: the detector will "
                    "never fire.  Raise attack_fraction/rate_bps, lower the "
                    "overload factor, or set force_activation_at.",
                ))
            elif ratio < 1.15 * needed:
                report.findings.append(Finding(
                    Severity.WARNING,
                    "detection-marginal",
                    f"estimated flood-to-baseline ratio {ratio:.2f} barely "
                    f"clears the overload factor {needed:.2f}; detection "
                    "may be seed-dependent.",
                ))

    # --- Warm-up vs attack start ----------------------------------------
    warmup_ends = config.pushback.warmup_epochs * config.monitor_period
    if config.attack_start < warmup_ends and config.force_activation_at is None:
        report.findings.append(Finding(
            Severity.WARNING,
            "attack-during-warmup",
            f"the attack starts at {config.attack_start:.2f}s, inside the "
            f"detector's warm-up (ends {warmup_ends:.2f}s): the baseline "
            "will absorb part of the flood.",
        ))

    # --- Probe window vs run length ---------------------------------------
    window = config.mafic.probe_window(None)
    active = config.duration - (config.attack_start + config.monitor_period)
    if active <= 2 * window:
        report.findings.append(Finding(
            Severity.WARNING,
            "short-active-period",
            f"the defence-active period (~{active:.2f}s) is under two probe "
            f"windows ({window:.2f}s each): Lr and theta_n will be "
            "dominated by the probing transient.",
        ))

    # --- Probe window vs path RTT ----------------------------------------
    if config.mafic.default_rtt < rtt * 0.75:
        report.findings.append(Finding(
            Severity.WARNING,
            "probe-window-below-rtt",
            f"MaficConfig.default_rtt ({config.mafic.default_rtt:.3f}s) is "
            f"well below the estimated path RTT ({rtt:.3f}s): conforming "
            "TCP may be judged before its in-flight pipeline drains.",
        ))

    # --- Informational ----------------------------------------------------
    report.findings.append(Finding(
        Severity.INFO,
        "load-estimate",
        f"estimated steady load: legit {legit_pps:.0f} pps + attack "
        f"{attack_pps:.0f} pps across {len(range(config.n_zombies))} zombies.",
    ))
    return report
