"""Ablation: the probe timer multiplier.

The paper fixes the verdict timer at 2 x RTT "to allow for a moderate
amount of time for the legitimate sources to respond".  This bench
sweeps the multiplier to show why: shorter windows misjudge conforming
TCP (its in-flight pipeline is still arriving), longer windows only add
leakage during probing.
"""

from conftest import run_once

from repro.core.config import MaficConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.collectors import FlowTruth

MULTIPLIERS = [1.0, 2.0, 4.0]


def _sweep():
    results = {}
    for multiplier in MULTIPLIERS:
        config = ExperimentConfig(
            total_flows=24, n_routers=12, seed=131,
            mafic=MaficConfig(probe_timer_rtt_multiplier=multiplier),
        )
        results[multiplier] = run_experiment(config)
    return results


class TestTimerAblation:
    def test_timer_sweep(self, benchmark):
        results = run_once(benchmark, _sweep)
        print()
        print(
            f"{'timer':>6} {'alpha%':>8} {'theta_n%':>9} {'Lr%':>7} "
            f"{'tcp-cut':>8} {'tcp-nice':>9}"
        )
        rows = {}
        for multiplier, run in results.items():
            confusion = run.scenario.defense_collector.verdict_confusion()
            tcp_cut = confusion.get((FlowTruth.TCP_LEGIT, "cut"), 0)
            tcp_nice = confusion.get((FlowTruth.TCP_LEGIT, "nice"), 0)
            s = run.summary
            rows[multiplier] = (s, tcp_cut, tcp_nice)
            print(
                f"{multiplier:>5.1f}x {100 * s.accuracy:>8.2f} "
                f"{100 * s.false_negative_rate:>9.2f} "
                f"{100 * s.legit_drop_rate:>7.2f} {tcp_cut:>8} {tcp_nice:>9}"
            )

        # The paper's choice works: at 2 x RTT no TCP flow is condemned
        # and accuracy stays high.
        s2, tcp_cut_2, tcp_nice_2 = rows[2.0]
        assert tcp_cut_2 == 0
        assert tcp_nice_2 >= 1
        assert s2.accuracy > 0.97

        # Longer timers leak more during probing (theta_n grows with the
        # window), so 4x is never better than 2x on suppression.
        assert rows[4.0][0].false_negative_rate >= s2.false_negative_rate

        # Accuracy stays high across the sweep: the verdict design
        # (trailing-half-window rate) is robust to the timer choice.
        for multiplier, (s, _, _) in rows.items():
            assert s.accuracy > 0.95, multiplier
