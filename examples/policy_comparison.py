#!/usr/bin/env python3
"""Compare MAFIC against the baseline drop policies.

Runs the same attack scenario under four defences:

* MAFIC             — adaptive probe-then-cut (this paper),
* proportional drop — the authors' earlier scheme [2]: every victim-bound
                      packet dropped with the same probability Pd,
* aggregate limit   — pushback-style token-bucket rate limiting,
* none              — undefended control.

Prints the accuracy / collateral trade-off that motivates the paper.

Run:  python examples/policy_comparison.py
"""

from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.config import DefenseKind
from repro.obs import CallbackSink, EventBus


def arrivals_at_victim(start: float, end: float):
    """A bus and the (attack, legit) victim arrivals with
    ``start <= t < end`` it counts while a run publishes onto it."""
    counts = {True: 0, False: 0}

    def count(event) -> None:
        if start <= event.time < end:
            counts[event.is_attack] += 1

    bus = EventBus()
    bus.subscribe(CallbackSink(count), kinds=("victim.arrival",))
    return bus, counts


def main() -> None:
    print("Running the same DDoS under four defences...\n")
    rows = []
    for defense in (
        DefenseKind.MAFIC,
        DefenseKind.PROPORTIONAL,
        DefenseKind.RATE_LIMIT,
        DefenseKind.NONE,
    ):
        config = ExperimentConfig(
            total_flows=30, n_routers=16, seed=19, defense=defense
        )
        bus, late = arrivals_at_victim(config.duration - 1.0, config.duration)
        result = run_experiment(config, bus=bus)
        s = result.summary
        late_attack, late_legit = late[True], late[False]
        rows.append(
            (
                defense.value,
                100 * s.accuracy,
                100 * s.legit_drop_rate,
                100 * s.false_negative_rate,
                late_attack,
                late_legit,
            )
        )
        print(f"  {defense.value:<14} done "
              f"({result.events_executed:,} events)")

    print()
    header = (
        f"{'defence':<14} {'accuracy%':>10} {'legit-loss%':>12} "
        f"{'theta_n%':>9} {'atk@victim':>11} {'legit@victim':>13}"
    )
    print(header)
    print("-" * len(header))
    for name, acc, lr, fn, atk, legit in rows:
        print(
            f"{name:<14} {acc:>10.2f} {lr:>12.2f} {fn:>9.2f} "
            f"{atk:>11} {legit:>13}"
        )

    print(
        "\nReading: MAFIC matches the blunt policies on attack suppression"
        "\nwhile cutting legitimate losses by an order of magnitude — the"
        "\n'collateral damage' argument of the paper's Section II."
    )


if __name__ == "__main__":
    main()
