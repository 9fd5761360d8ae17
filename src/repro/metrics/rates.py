"""The paper's summary rates, folded from the collectors.

Exact definitions used (documented once, here, and referenced by
EXPERIMENTS.md):

* **α (accuracy)** — attack packets dropped by the defence line divided
  by attack packets *examined* by the defence line (i.e. arriving at the
  ATRs while pushback is active).  Section V.A: "the percentage of
  dropped malicious packets among total number of malicious packets that
  arrive at the ATRs".
* **β (traffic reduction)** — relative drop in the victim's arrival rate
  between a short window ending at defence activation and the probing
  phase that follows (offset a quarter of the probe timer to let queued
  packets flush, spanning one probe timer).  Section V.B reports the cut
  observed "within a time period of 2 x RTT" of the trigger — i.e. the
  probing phase, which is what this window captures.
* **θp (false positive)** — packets of *well-behaved* flows (legitimate
  AND responsive) dropped because the detector classified their flow
  malicious (PDT drops), divided by all packets examined.  Probe-phase
  losses are charged to Lr, not θp: they are the probing cost, not a
  classification.
* **θn (false negative)** — attack packets that crossed the defence line
  undetected (passed an ATR while active) divided by attack packets
  examined.
* **Lr (legitimate-packet dropping rate)** — all defence drops of
  well-behaved flows (probing + any subsequent PDT drops) divided by
  well-behaved packets examined.  Section V.D: "packets in well-behaved
  flows dropped during the probing phase and the subsequent dropping
  process".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.collectors import (
    DefenseMetricsCollector,
    FlowTruth,
    StreamingVictimCollector,
)


@dataclass
class MetricsSummary:
    """One run's headline numbers (fractions in [0, 1], not percent)."""

    accuracy: float
    traffic_reduction: float
    false_positive_rate: float
    false_negative_rate: float
    legit_drop_rate: float
    # Supporting raw counts for reporting/debugging.
    attack_examined: int = 0
    attack_dropped: int = 0
    wellbehaved_examined: int = 0
    wellbehaved_dropped: int = 0
    wellbehaved_pdt_drops: int = 0
    total_examined: int = 0
    victim_rate_before_bps: float = 0.0
    victim_rate_after_bps: float = 0.0

    def as_percent(self) -> dict[str, float]:
        """The five rates as percentages (paper-style)."""
        return {
            "alpha": 100.0 * self.accuracy,
            "beta": 100.0 * self.traffic_reduction,
            "theta_p": 100.0 * self.false_positive_rate,
            "theta_n": 100.0 * self.false_negative_rate,
            "Lr": 100.0 * self.legit_drop_rate,
        }


def summarize(
    defense: DefenseMetricsCollector,
    victim: StreamingVictimCollector | None = None,
) -> MetricsSummary:
    """Fold collectors into a :class:`MetricsSummary`.

    β comes from ``victim``'s own windows (see
    :meth:`~repro.metrics.collectors.StreamingVictimCollector.beta_rates`).
    """
    attack = defense.of(FlowTruth.ATTACK)
    nice = defense.of(FlowTruth.TCP_LEGIT)

    accuracy = attack.dropped / attack.examined if attack.examined else 0.0
    theta_n = attack.passed / attack.examined if attack.examined else 0.0

    total = defense.total_examined
    theta_p = nice.dropped_pdt / total if total else 0.0
    lr = nice.dropped / nice.examined if nice.examined else 0.0

    beta = 0.0
    rate_before = rate_after = 0.0
    if victim is not None and victim.defense_activated_at is not None:
        rate_before, rate_after = victim.beta_rates()
        if rate_before > 0:
            beta = max(0.0, 1.0 - rate_after / rate_before)

    return MetricsSummary(
        accuracy=accuracy,
        traffic_reduction=beta,
        false_positive_rate=theta_p,
        false_negative_rate=theta_n,
        legit_drop_rate=lr,
        attack_examined=attack.examined,
        attack_dropped=attack.dropped,
        wellbehaved_examined=nice.examined,
        wellbehaved_dropped=nice.dropped,
        wellbehaved_pdt_drops=nice.dropped_pdt,
        total_examined=total,
        victim_rate_before_bps=rate_before,
        victim_rate_after_bps=rate_after,
    )
