"""Ablation: RFC 2827 ingress filtering vs MAFIC.

The paper assumes ingress filtering is not deployed (Section I) — that
assumption is why spoofed-source probing is needed at all.  This bench
ablates it: with filtering on, cross-subnet spoofing dies at the edge,
but a zombie spoofing *within* its own subnet (or not spoofing) still
floods, so MAFIC remains necessary; with filtering off, MAFIC alone
carries the defence.
"""

from conftest import run_once

from repro.attacks.spoofing import SpoofMode, SpoofingModel
from repro.experiments.config import DefenseKind, ExperimentConfig
from repro.experiments.runner import run_experiment


def _run_grid():
    results = {}
    for filtering in (False, True):
        for defense in (DefenseKind.NONE, DefenseKind.MAFIC):
            config = ExperimentConfig(
                total_flows=24,
                n_routers=12,
                seed=171,
                ingress_filtering=filtering,
                defense=defense,
                spoofing=SpoofingModel(mode=SpoofMode.LEGIT_SUBNET),
            )
            results[(filtering, defense)] = run_experiment(config)
    return results


def attack_at_victim(run):
    """Attack packets the victim's sinks received (none can arrive
    before the attack starts)."""
    scenario = run.scenario
    return (
        scenario.tcp_sink.attack_packets_received
        + scenario.udp_sink.attack_packets_received
    )


class TestFilteringAblation:
    def test_filtering_grid(self, benchmark):
        results = run_once(benchmark, _run_grid)
        print()
        print(f"{'filtering':>10} {'defence':>8} {'atk@victim':>11} {'alpha%':>8}")
        for (filtering, defense), run in results.items():
            attack = attack_at_victim(run)
            print(
                f"{str(filtering):>10} {defense.value:>8} {attack:>11} "
                f"{100 * run.summary.accuracy:>8.2f}"
            )

        undefended = results[(False, DefenseKind.NONE)]
        filtered_only = results[(True, DefenseKind.NONE)]
        mafic_only = results[(False, DefenseKind.MAFIC)]

        # Cross-subnet spoofing: filtering alone kills most of the flood
        # at the edge (the paper's "if only it were deployed" case).
        assert attack_at_victim(filtered_only) < 0.2 * attack_at_victim(
            undefended
        )
        # MAFIC achieves comparable suppression WITHOUT assuming
        # deployment — the paper's raison d'etre.
        assert attack_at_victim(mafic_only) < 0.2 * attack_at_victim(
            undefended
        )
