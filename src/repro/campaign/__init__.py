"""Declarative experiment campaigns over a persistent run store.

The paper's results are campaigns — multi-seed sweeps over attack
intensity, topology shape, and defence parameters — not single runs.
This package turns a TOML/JSON :class:`CampaignSpec` into a
content-addressed plan of configs, executes it through one lease-pull
cell executor (:mod:`repro.campaign.worker` — in-process or as N worker
processes on the same store) with one JSON artifact per run, and makes
the whole thing resumable, crash-tolerant, extensible, and queryable:

    from repro.campaign import CampaignSpec, run_campaign, campaign_report

    spec = CampaignSpec.load("pd-sweep.toml")
    run_campaign(spec, jobs=8)          # crash-safe; re-run to resume
    print(campaign_report(spec))        # per-point means with CIs
"""

from repro.campaign.orchestrator import (
    DEFAULT_ROOT,
    CampaignRunReport,
    CampaignStatus,
    campaign_gc,
    campaign_status,
    open_store,
    run_campaign,
)
from repro.campaign.query import (
    REPORT_METRICS,
    aggregate_by_point,
    campaign_figures,
    campaign_report,
    group_by_point,
    load_runs,
    report_rows,
    runs_where,
)
from repro.campaign.spec import (
    AxisSpec,
    CampaignSpec,
    CampaignSpecError,
    PlannedRun,
)
from repro.campaign.store import (
    STORE_SCHEMA,
    CampaignStore,
    GCReport,
    StoredRun,
    StoreError,
)

__all__ = [
    "AxisSpec",
    "CampaignRunReport",
    "CampaignSpec",
    "CampaignSpecError",
    "CampaignStatus",
    "CampaignStore",
    "DEFAULT_ROOT",
    "GCReport",
    "PlannedRun",
    "REPORT_METRICS",
    "STORE_SCHEMA",
    "StoreError",
    "StoredRun",
    "aggregate_by_point",
    "campaign_figures",
    "campaign_gc",
    "campaign_report",
    "campaign_status",
    "group_by_point",
    "load_runs",
    "open_store",
    "report_rows",
    "run_campaign",
    "runs_where",
]
