#!/usr/bin/env python3
"""Campaign walkthrough: declare a grid, run it, crash, resume, query.

Everything here also exists as CLI verbs (``python -m repro campaign
run|status|resume|report spec.toml``); this script shows the same
lifecycle through the Python API, using a temporary store root.

Run:  PYTHONPATH=src python examples/campaign_workflow.py
"""

from __future__ import annotations

import tempfile

from repro.campaign import (
    CampaignSpec,
    campaign_report,
    campaign_status,
    load_runs,
    run_campaign,
)


def main() -> int:
    # The grid the paper's Fig. 4-style comparisons need: attack
    # intensity x defence, three seeds each.  Declared, not scripted.
    spec = CampaignSpec(
        name="demo-attack-vs-defense",
        seeds=(1, 2, 3),
        base={
            "total_flows": 10,
            "n_routers": 6,
            "duration": 1.5,
            "attack_start": 1.05,
            "topology": "star",
        },
        axes=(
            {"field": "attack_fraction", "values": (0.3, 0.6)},
            {"field": "defense", "values": ("mafic", "proportional")},
        ),
    )
    print(f"campaign plans {len(spec.plan())} content-addressed runs\n")

    with tempfile.TemporaryDirectory(prefix="campaign-demo-") as root:
        # "Crash" after 5 runs: artifacts for completed work survive.
        partial = run_campaign(spec, root=root, jobs=1, max_runs=5)
        status = campaign_status(spec, root)
        print(
            f"interrupted: {partial.executed} executed, "
            f"{len(status.missing)} still missing"
        )

        # Resume: cached runs are skipped, only the remainder executes.
        resumed = run_campaign(spec, root=root, jobs=1)
        print(
            f"resumed:     {resumed.cached} cached, "
            f"{resumed.executed} executed -> complete={resumed.complete}\n"
        )

        # Query: per-point means with CIs, straight off the store.
        report = campaign_report(spec, root)
        for entry in report["points"]:
            point = ", ".join(f"{k}={v}" for k, v in entry["point"].items())
            alpha = entry["metrics"]["accuracy"]
            print(
                f"  {point:<45} alpha = {100 * alpha['mean']:5.1f}% "
                f"+/- {100 * alpha['ci_halfwidth']:4.1f} (n={alpha['n']})"
            )

        # Or read the stored runs directly: the lowest seed per point
        # comes first, since plans put seeds innermost.
        mafic_runs = load_runs(
            spec, root, where=lambda run: run.config.defense == "mafic"
        )
        by_x: dict = {}
        for run in mafic_runs:
            by_x.setdefault(run.point["attack_fraction"], run.summary.accuracy)
        print(f"\nmafic alpha across attack_fraction {list(by_x)}: "
              f"{[f'{100 * y:.1f}%' for y in by_x.values()]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
