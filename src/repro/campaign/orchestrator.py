"""Campaign execution: plan -> skip what is filed -> hand the rest to workers.

:func:`run_campaign` is the parent of the one cell executor, the
lease-pull loop :func:`repro.campaign.worker.run_worker`.  It prepares
the store (:func:`prepare_store`), returns at once when a single readdir
shows nothing missing, and otherwise runs the loop *in this process*
(``jobs == 1``) or as worker subprocesses
(:func:`repro.campaign.pool.run_pool`) — the same claims, retries and
quarantine either way, so a second ``run_campaign`` on the same store
splits the grid with the first.  Each run is fully determined by its
config and artifacts are written atomically, so the union of artifacts
from any interleaving of partial executions is bit-identical to one
uninterrupted pass.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.campaign.spec import CampaignSpec, PlannedRun
from repro.campaign.store import (
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_ATTEMPTS,
    CampaignStore,
    GCReport,
    StoreError,
)
from repro.experiments.parallel import default_jobs

#: Default artifact root, relative to the working directory.
DEFAULT_ROOT = "campaigns"


@dataclass
class CampaignRunReport:
    """What one ``run``/``resume`` invocation did."""

    name: str
    store_dir: Path
    planned: int
    cached: int
    #: Cells this invocation's workers filed (with worker subprocesses:
    #: planned artifacts that appeared while they ran).
    executed: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0
    #: True when Ctrl-C cut the invocation short.  Artifacts filed
    #: before the interrupt are on disk; ``resume`` picks up the rest.
    interrupted: bool = False
    #: Planned cells still without an artifact at exit, and how many of
    #: those the failure ledger has quarantined (attempts exhausted).
    remaining: int = 0
    quarantined: int = 0
    #: Worker subprocesses only: abnormal exits survived, replacements
    #: spawned, every worker's final state.
    deaths: int = 0
    respawns: int = 0
    exits: list = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when every planned run now has an artifact."""
        return self.remaining == 0


@dataclass
class CampaignStatus:
    """How far along a campaign is, without running anything."""

    name: str
    store_dir: Path
    planned: int
    complete: int
    missing: list[PlannedRun] = field(default_factory=list)
    #: Artifacts on disk that the current spec no longer plans (stale
    #: axis points, or runs from a previous spec revision).
    unplanned: int = 0
    #: Missing cells the failure ledger has quarantined (distributed
    #: workers exhausted their attempts; see ``--retry-failed``).
    quarantined: int = 0

    @property
    def is_complete(self) -> bool:
        return not self.missing


def open_store(spec: CampaignSpec, root: str | Path = DEFAULT_ROOT) -> CampaignStore:
    """The campaign's store directory under ``root``."""
    return CampaignStore(Path(root) / spec.name)


def campaign_status(
    spec: CampaignSpec, root: str | Path = DEFAULT_ROOT
) -> CampaignStatus:
    """Compare the spec's plan against the artifacts on disk."""
    store = open_store(spec, root)
    plan = spec.plan()
    on_disk = store.run_ids()
    planned_ids = {run.run_id for run in plan}
    missing = [run for run in plan if run.run_id not in on_disk]
    missing_ids = {run.run_id for run in missing}
    return CampaignStatus(
        name=spec.name,
        store_dir=store.directory,
        planned=len(plan),
        complete=len(plan) - len(missing),
        missing=missing,
        unplanned=len(on_disk - planned_ids),
        quarantined=len(missing_ids & store.quarantined_ids()),
    )


def campaign_gc(
    spec: CampaignSpec,
    root: str | Path = DEFAULT_ROOT,
    apply: bool = False,
    min_debris_age_seconds: float = 3600.0,
) -> GCReport:
    """Prune store debris the current spec's plan no longer references.

    Doomed: artifacts for cells the plan dropped (old axis points, old
    seeds), sidecars orphaned by a crash between the two artifact
    writes, and leftover atomic-write temp files — the latter two only
    when older than ``min_debris_age_seconds``, so gc run next to live
    workers never unlinks an in-flight write.  Planned artifacts and
    the manifest are never touched; a spec that still plans a pruned
    cell just re-executes it on the next resume — nothing else re-runs.
    Dry-run by default; pass ``apply=True`` to delete.
    """
    store = open_store(spec, root)
    if not store.exists():
        raise StoreError(f"no campaign store at {store.directory}")
    planned_ids = {run.run_id for run in spec.plan()}
    return store.gc(
        planned_ids, apply=apply,
        min_debris_age_seconds=min_debris_age_seconds,
    )


def prepare_store(
    spec: CampaignSpec,
    root: str | Path = DEFAULT_ROOT,
    series_bin_width: float = 0.05,
    compress_series: bool | None = None,
    retry_failed: bool = False,
) -> CampaignStore:
    """Make ``root/<name>`` ready for workers: skeleton, spec snapshot,
    and the series resolution pinned (a store prepared at another
    ``series_bin_width`` raises rather than mix resolutions);
    ``retry_failed`` clears the failure ledger so quarantined cells are
    attempted again.
    """
    store = open_store(spec, root).ensure()
    store.pin_series_bin_width(series_bin_width)
    store.write_manifest(
        spec.to_dict(),
        series_bin_width=series_bin_width,
        compress_series=compress_series,
    )
    if retry_failed:
        store.clear_failures()
    return store


def run_campaign(
    spec: CampaignSpec,
    root: str | Path = DEFAULT_ROOT,
    jobs: int | None = None,
    series_bin_width: float = 0.05,
    max_runs: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    bus=None,
    profile_path: str | None = None,
    compress_series: bool | None = None,
    *,
    retry_failed: bool = False,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    cell_timeout: float | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    sim_events: bool = False,
    run_cell: Callable | None = None,
) -> CampaignRunReport:
    """Execute (or resume) a campaign; returns what happened.

    Cells run through :func:`~repro.campaign.worker.run_worker` in this
    process when one worker is enough (``jobs == 1``, or one cell
    missing) and no ``cell_timeout`` is set, else in worker subprocesses
    — that watchdog can only stop a wedged simulation by ``os._exit``,
    which must not take the caller with it.  Either way a failing cell
    is charged to the store's failure ledger (traceback included),
    retried after backoff and quarantined after ``max_attempts``: the
    report comes back incomplete, no exception escapes.

    ``max_runs`` caps how many cells this invocation attempts (the rest
    stay missing for a later resume — the hook tests use to stop a
    campaign mid-grid) and ``profile_path`` cProfiles exactly one
    missing cell (:mod:`repro.experiments.profiling`); both run in this
    process.  ``progress`` is called with (done, total) per filed cell.

    ``bus`` (an :class:`~repro.obs.bus.EventBus`) receives the workers'
    ``worker.*`` events, one ``campaign.run`` then ``campaign.progress``
    per filed cell, and with ``sim_events`` every cell's simulation
    events.  ``run_cell`` replaces how a config becomes a result when
    the loop runs in this process (see ``run_worker``); worker
    subprocesses always call ``run_experiment``.

    Ctrl-C stops cleanly: the in-flight cell's lease is released, every
    earlier cell is filed, the report says ``interrupted=True``, and
    ``resume`` re-plans only the remainder.
    """
    started = time.perf_counter()
    if max_runs is not None and max_runs < 0:
        raise ValueError("max_runs must be >= 0")
    if profile_path is not None:
        from repro.experiments.profiling import profiled_call
        from repro.experiments.runner import run_experiment

        max_runs = 1

        def run_cell(config, **kwargs):
            return profiled_call(
                lambda: run_experiment(config, **kwargs), profile_path
            )

    if max_runs is not None:
        if cell_timeout is not None:
            raise ValueError(
                "max_runs and profile_path execute in the calling process, "
                "which a cell_timeout exit would take down; drop one"
            )
        jobs = 1
    store = prepare_store(
        spec, root, series_bin_width, compress_series, retry_failed
    )

    planned_ids = {run.run_id for run in spec.plan()}
    # One readdir, not one stat() per run: a warm resume ends here.
    cached = len(planned_ids & store.run_ids())
    total = len(planned_ids) - cached
    if max_runs is not None:
        total = min(total, max_runs)
    jobs = default_jobs() if jobs is None else int(jobs)
    jobs = max(1, min(jobs, total))  # no worker for a cell that isn't there
    report = CampaignRunReport(
        name=spec.name,
        store_dir=store.directory,
        planned=len(planned_ids),
        cached=cached,
        jobs=jobs,
        remaining=len(planned_ids) - cached,
    )
    if total == 0:
        report.wall_seconds = time.perf_counter() - started
        return report

    from repro.obs.events import CampaignProgress

    done = 0
    done_lock = threading.Lock()  # pool readers file from N threads

    def filed() -> None:
        nonlocal done
        with done_lock:
            done += 1
            if progress is not None:
                progress(done, total)
            if bus:
                bus.emit(CampaignProgress(
                    time=0.0, name=spec.name, done=done, total=total,
                    cached=cached,
                ))

    # Both imported here: ``python -m repro.campaign.worker`` imports
    # this package first, and the pool module builds on this one.
    if jobs == 1 and cell_timeout is None:
        from repro.campaign.worker import run_worker

        try:
            run_worker(
                store.directory,
                lease_ttl=lease_ttl,
                max_attempts=max_attempts,
                max_cells=max_runs,
                bus=bus,
                sim_events=sim_events,
                run_cell=run_cell,
                on_filed=filed,
            )
        except KeyboardInterrupt:
            report.interrupted = True
        missing = planned_ids - store.run_ids()
        report.executed = done
        report.remaining = len(missing)
        report.quarantined = len(missing & store.quarantined_ids())
        report.wall_seconds = time.perf_counter() - started
        return report
    from repro.campaign.pool import run_pool

    return run_pool(
        store.directory,
        jobs=jobs,
        lease_ttl=lease_ttl,
        cell_timeout=cell_timeout,
        max_attempts=max_attempts,
        bus=bus,
        sim_events=sim_events,
        on_filed=filed,
    )
