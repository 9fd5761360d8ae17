#!/usr/bin/env python3
"""Walk through the full pushback pipeline, stage by stage.

This example exposes the machinery the quickstart hides:

1. the LogLog sketches estimating per-epoch traffic matrices,
2. the victim-overload detector and its calm baseline,
3. ATR identification from the matrix column,
4. MAFIC's probe verdicts at each identified ATR, and
5. the victim's bandwidth time line (the Fig. 4(b) view).

Run:  python examples/pushback_pipeline.py
"""

from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.scenario import build_scenario
from repro.metrics.timeseries import BandwidthSeries


def main() -> None:
    config = ExperimentConfig(total_flows=30, n_routers=16, seed=13)
    scenario = build_scenario(config)
    # The monitor keeps only its latest matrix; gather the first ten
    # epochs on their way to the pushback coordinator.
    monitor = scenario.monitor
    epochs = []
    to_coordinator = monitor.on_snapshot

    def gather(snapshot):
        if len(epochs) < 10:
            epochs.append(snapshot)
        to_coordinator(snapshot)

    monitor.on_snapshot = gather
    result = run_experiment(config, scenario=scenario)

    print("=== 1. Traffic-matrix epochs (set-union counting) ===")
    print(f"{'epoch end':>10} {'|Dj| victim':>12}  top ingress contributions")
    for snap in epochs:
        egress = snap.egress_totals[scenario.topology.victim_router_name]
        col = snap.destinations.index(scenario.topology.victim_router_name)
        contributions = sorted(
            ((snap.matrix[i][col], src) for i, src in enumerate(snap.sources)),
            reverse=True,
        )[:3]
        tops = ", ".join(f"{src}={val:.0f}" for val, src in contributions)
        print(f"{snap.time:>10.2f} {egress:>12.0f}  {tops}")

    print("\n=== 2. Detection and ATR identification ===")
    coordinator = scenario.coordinator
    print(f"calm baseline learned: {coordinator.baseline:.0f} packets/epoch")
    for report in coordinator.reports[:3]:
        named = ", ".join(report.atr_names) or "(none)"
        print(
            f"t={report.time:.2f}: egress {report.egress_estimate:.0f} > "
            f"threshold {report.threshold:.0f} -> ATRs: {named}"
        )
    true_atrs = scenario.attack.atr_ground_truth
    print(f"ground-truth ATRs: {sorted(true_atrs)}")
    print(f"identified:        {sorted(result.identified_atrs)}")
    print(f"precision {result.atr_precision:.0%}, recall {result.atr_recall:.0%}")

    print("\n=== 3. MAFIC verdicts at the ATRs ===")
    for name, agent in sorted(scenario.agents.items()):
        if agent.stats.activations == 0:
            continue
        stats = agent.stats
        print(
            f"{name}: probed {stats.probes_initiated}, "
            f"nice {stats.verdicts_nice}, cut {stats.verdicts_cut}, "
            f"pdt-drops {stats.packets_dropped_pdt}, "
            f"illegal-drops {stats.packets_dropped_illegal}"
        )

    print("\n=== 4. Victim bandwidth timeline (Fig. 4(b) view) ===")
    series: BandwidthSeries = result.series
    t0 = result.activation_time or config.attack_start
    scale_max = max(series.total_kbps) or 1.0
    for t, kbps in zip(series.times[::4], series.total_kbps[::4]):
        bar = "#" * int(40 * kbps / scale_max)
        marker = " <- pushback" if abs(t - t0) < 0.11 else ""
        print(f"t={t:4.1f}s {kbps:9.0f} kbps |{bar}{marker}")

    print("\n=== 5. Headline metrics ===")
    for name, value in result.summary.as_percent().items():
        print(f"  {name:>8}: {value:.3f}%")


if __name__ == "__main__":
    main()
