#!/usr/bin/env python3
"""Quantify run-to-run variation: multi-seed runs with confidence intervals.

The paper reports single curves; this example shows how tight the
reproduction's metrics actually are across seeds — the evidence that the
headline numbers are not one lucky run — and demonstrates the
steady-state detector on the victim's post-cut arrival series.

The seeds are a seeds-only campaign in a temporary store: the campaign
workers (one per CPU) run them, and the runs are read back from the
store.  The per-seed numbers equal serial ``run_experiment`` calls.

Run:  python examples/multi_seed_confidence.py
"""

import tempfile

from repro.analysis import aggregate_runs, settling_time
from repro.campaign import CampaignSpec, load_runs, run_campaign


def main() -> None:
    spec = CampaignSpec(
        name="multi-seed-confidence",
        seeds=(101, 202, 303, 404, 505),
        base={"total_flows": 24, "n_routers": 12},
    )
    with tempfile.TemporaryDirectory() as root:
        print(f"Running {len(spec.seeds)} seeds of the same scenario...")
        report = run_campaign(spec, root=root)
        print(
            f"...done in {report.wall_seconds:.1f}s wall "
            f"({report.jobs} worker(s))"
        )
        runs = load_runs(spec, root)
    for run in runs:
        pct = run.summary.as_percent()
        print(
            f"  seed {run.seed:>3}: alpha={pct['alpha']:6.2f}%  "
            f"Lr={pct['Lr']:5.2f}%  theta_n={pct['theta_n']:5.2f}%"
        )

    print("\n95% confidence intervals over seeds:")
    print(aggregate_runs(runs).as_percent_table())

    print("\nSteady-state detection on the victim arrival series:")
    for run in runs[:3]:
        series = run.series
        settle = settling_time(
            series.times, series.total_kbps, window=8, tolerance=0.35
        )
        t0 = run.activation_time
        if settle is None or t0 is None:
            print(f"  seed {run.seed}: no settling detected")
            continue
        print(
            f"  seed {run.seed}: pushback at t={t0:.2f}s, "
            f"victim rate settled from t={settle:.2f}s "
            f"({settle - t0:+.2f}s after the trigger)"
        )


if __name__ == "__main__":
    main()
