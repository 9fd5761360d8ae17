"""Per-flow fate reports.

Aggregates everything a run learned about each flow — ground truth,
verdicts, drop counts, victim arrivals — into one row per flow.  Used by
examples and debugging; the figure metrics never need this granularity,
but a downstream user validating the defence on their own workload does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.metrics.collectors import FlowTruth

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenario import BuiltScenario


@dataclass
class FlowFate:
    """One flow's observed history across the run."""

    flow_hash: int
    truth: FlowTruth
    verdict: str | None = None  # "nice" | "cut" | "illegal_source" | None
    verdict_time: float | None = None
    packets_sent: int = 0
    victim_arrivals: int = 0
    description: str = ""

    @property
    def correctly_judged(self) -> bool | None:
        """Whether the verdict matches ground truth (None = no verdict).

        "Correct" follows the paper's semantics: attack flows should be
        cut; well-behaved (responsive legit) flows should be nice.
        Unresponsive legitimate flows have no "correct" verdict — cutting
        them is the accepted collateral — so they report None.
        """
        if self.verdict is None:
            return None
        if self.truth is FlowTruth.ATTACK:
            return self.verdict in ("cut", "illegal_source")
        if self.truth is FlowTruth.TCP_LEGIT:
            return self.verdict == "nice"
        return None


@dataclass
class FlowReport:
    """All flow fates of one run, with summary helpers."""

    fates: dict[int, FlowFate] = field(default_factory=dict)

    def of_truth(self, truth: FlowTruth) -> list[FlowFate]:
        """Fates of one ground-truth class."""
        return [f for f in self.fates.values() if f.truth is truth]

    def misjudged(self) -> list[FlowFate]:
        """Flows whose verdict contradicts ground truth."""
        return [
            f for f in self.fates.values() if f.correctly_judged is False
        ]

    def verdict_counts(self) -> dict[str, int]:
        """verdict -> count (verdict None reported as 'none')."""
        counts: dict[str, int] = {}
        for fate in self.fates.values():
            key = fate.verdict if fate.verdict is not None else "none"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def to_rows(self) -> list[list]:
        """Header + one row per flow (for CSV export)."""
        rows: list[list] = [[
            "flow_hash", "truth", "verdict", "verdict_time",
            "packets_sent", "victim_arrivals", "correct",
        ]]
        for fate in sorted(self.fates.values(), key=lambda f: f.flow_hash):
            rows.append([
                f"{fate.flow_hash:016x}",
                fate.truth.value,
                fate.verdict or "",
                fate.verdict_time if fate.verdict_time is not None else "",
                fate.packets_sent,
                fate.victim_arrivals,
                "" if fate.correctly_judged is None else fate.correctly_judged,
            ])
        return rows


def build_flow_report(scenario: "BuiltScenario") -> FlowReport:
    """Assemble the per-flow report from a finished scenario."""
    report = FlowReport()

    # Seed rows from ground truth.
    for flow_hash, truth in scenario.flow_truth.items():
        report.fates[flow_hash] = FlowFate(flow_hash=flow_hash, truth=truth)

    # Sender-side counts.
    for sender in scenario.tcp_senders:
        fate = report.fates.get(sender.flow.hashed())
        if fate is not None:
            fate.packets_sent = sender.stats.packets_sent
    for sender in scenario.udp_senders:
        fate = report.fates.get(sender.flow.hashed())
        if fate is not None:
            fate.packets_sent = sender.stats.packets_sent
    for zombie in scenario.attack.zombies:
        fate = report.fates.get(zombie.wire_flow.hashed())
        if fate is not None:
            fate.packets_sent = zombie.stats.packets_sent

    # Verdicts (last verdict wins if a flow was re-probed).
    for when, label, verdict, truth in scenario.defense_collector.verdicts:
        fate = report.fates.get(label)
        if fate is None:
            fate = FlowFate(flow_hash=label, truth=truth)
            report.fates[label] = fate
        fate.verdict = verdict
        fate.verdict_time = when

    # Victim arrivals require per-flow accounting from the sinks.
    sink = scenario.tcp_sink
    if sink is not None:
        for flow_hash, next_seq in sink.frontiers().items():
            fate = report.fates.get(flow_hash)
            if fate is not None:
                fate.victim_arrivals = max(fate.victim_arrivals, next_seq)
    return report
