"""The worker pool: N ``repro.campaign.worker`` processes, one store.

:func:`run_pool` spawns worker subprocesses against a prepared campaign
store and babysits them: each worker pulls cells by lease
(:mod:`repro.campaign.worker`), streams its events as JSON lines on
stdout (decoded back onto the parent's bus, so ``campaign run`` prints
and ``serve --campaign`` shows the whole fleet), and exits 0 when
nothing claimable remains.  A worker that dies any other way —
SIGKILLed, OOMed, cell-timeout ``os._exit``, crashed — is *respawned*
(up to a bounded budget) after a ``worker.died`` event; its lease
expires and the replacement reclaims the cell.  The pool never
re-executes finished work: claims and resume both key on the
content-addressed artifacts.

It is the single-host convenience, not a coordinator: N *hosts* on a
shared filesystem each run ``python -m repro.campaign.worker <store>``
and the leases coordinate them with no parent at all.
:func:`repro.campaign.orchestrator.run_campaign` calls :func:`run_pool`
whenever more than one worker (or a ``cell_timeout``) is asked for;
:func:`run_distributed` is "prepare the store, then the pool" under
the name the perf ledger and multi-host recipes call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from repro.campaign.chaos import WORKER_ENV_VAR
from repro.campaign.orchestrator import (
    DEFAULT_ROOT,
    CampaignRunReport,
    prepare_store,
)
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import (
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_ATTEMPTS,
    CampaignStore,
    StoreError,
)
from repro.campaign.worker import EXIT_CELL_TIMEOUT
from repro.experiments.parallel import default_jobs

#: Poll cadence of the babysitting loop (worker exits, respawn checks).
_POLL = 0.05


@dataclass
class WorkerExit:
    """One worker process's final state."""

    worker: str
    exitcode: int
    reason: str  # "drained" | "signal" | "timeout" | "error"


def run_pool(
    store_dir,
    jobs: int | None = None,
    *,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    cell_timeout: float | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    respawn_limit: int | None = None,
    bus=None,
    sim_events: bool = False,
    on_filed=None,
    env: dict | None = None,
) -> CampaignRunReport:
    """Run worker subprocesses until the campaign drains; returns what
    happened (``executed``: planned artifacts that appeared meanwhile).

    At most ``jobs`` workers start, and never more than there are
    claimable cells.  ``sim_events`` has them stream their cells'
    simulation events onto ``bus`` as well; ``on_filed`` is called once
    per ``campaign.run`` a worker reports (from the reader threads).
    ``respawn_limit`` bounds replacements for abnormally dead workers
    (default ``max(4, 2 * jobs)``) — with the chaos harness armed at
    probability 1.0 every replacement dies too, and the bound turns
    that into "pool returns incomplete" instead of a fork bomb.
    ``env`` overlays the workers' environment (tests inject
    ``REPRO_CHAOS`` here); every worker also gets ``REPRO_WORKER_ID``
    set to its name so chaos streams are per-worker deterministic.
    """
    started = time.perf_counter()
    store = CampaignStore(store_dir)
    if not store.exists():
        raise StoreError(f"no campaign store at {store.directory}")
    spec = CampaignSpec.from_dict(store.read_manifest())
    planned_ids = {run.run_id for run in spec.plan()}
    cached = len(store.run_ids() & planned_ids)

    def remaining_claimable() -> int:
        missing = planned_ids - store.run_ids()
        return len(missing - store.quarantined_ids())

    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    # A worker costs ~0.35 s of imports: none for cells that don't exist
    # (so none at all on a complete or all-quarantined store).
    jobs = min(jobs, remaining_claimable())
    if respawn_limit is None:
        respawn_limit = max(4, 2 * jobs)

    report = CampaignRunReport(
        name=spec.name,
        store_dir=store.directory,
        planned=len(planned_ids),
        cached=cached,
        jobs=jobs,
    )
    def spawn(name: str) -> tuple[str, subprocess.Popen, threading.Thread]:
        cmd = [
            sys.executable, "-m", "repro.campaign.worker",
            str(store.directory),
            "--worker", name,
            "--events",
            "--lease-ttl", str(lease_ttl),
            "--max-attempts", str(max_attempts),
        ]
        if cell_timeout is not None:
            cmd += ["--cell-timeout", str(cell_timeout)]
        if sim_events:
            cmd.append("--sim-events")
        worker_env = dict(os.environ)
        if env:
            worker_env.update(env)
        worker_env[WORKER_ENV_VAR] = name
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=worker_env
        )
        reader = threading.Thread(
            target=_drain_events, args=(proc.stdout, bus, on_filed),
            name=f"pool-reader-{name}", daemon=True,
        )
        reader.start()
        return name, proc, reader

    alive = [spawn(f"w{i}") for i in range(jobs)]
    try:
        while alive:
            time.sleep(_POLL)
            still = []
            for name, proc, reader in alive:
                rc = proc.poll()
                if rc is None:
                    still.append((name, proc, reader))
                    continue
                reader.join(timeout=5.0)
                exit_info = _classify_exit(name, rc)
                report.exits.append(exit_info)
                if exit_info.reason == "drained":
                    continue
                report.deaths += 1
                if bus:
                    _emit_worker_died(bus, exit_info)
                if report.respawns < respawn_limit \
                        and remaining_claimable() > 0:
                    report.respawns += 1
                    still.append(
                        spawn(f"{name.split('-')[0]}-{report.respawns}")
                    )
            alive = still
    except KeyboardInterrupt:
        report.interrupted = True
        for _, proc, _ in alive:
            proc.terminate()
        for _, proc, reader in alive:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
            reader.join(timeout=5.0)

    missing = planned_ids - store.run_ids()
    report.remaining = len(missing)
    report.executed = len(planned_ids) - cached - len(missing)
    report.quarantined = len(missing & store.quarantined_ids())
    report.wall_seconds = time.perf_counter() - started
    return report


def run_distributed(
    spec: CampaignSpec, root=DEFAULT_ROOT, jobs: int | None = None,
    **pool_options,
) -> CampaignRunReport:
    """Prepare the store, then :func:`run_pool` with ``pool_options`` —
    always subprocesses, even for ``jobs=1`` (which
    :func:`~repro.campaign.orchestrator.run_campaign` runs in-process).
    """
    store = prepare_store(spec, root)
    return run_pool(store.directory, jobs=jobs, **pool_options)


def _drain_events(stream, bus, on_filed=None) -> None:
    """Decode one worker's stdout protocol back onto the parent bus.

    Always runs to EOF even with nobody listening: the workers block on
    a full pipe otherwise.  Undecodable lines are dropped — a worker
    SIGKILLed mid-line (the chaos harness guarantees some) leaves a
    torn fragment, and losing one advisory event is the correct cost.
    """
    from repro.obs.events import event_from_dict

    try:
        for line in stream:
            if not bus and on_filed is None:
                continue
            try:
                event = event_from_dict(json.loads(line))
            except (json.JSONDecodeError, TypeError):
                continue
            if event is None:
                continue
            if bus:
                bus.emit(event)
            if on_filed is not None and event.kind == "campaign.run":
                on_filed()
    finally:
        try:
            stream.close()
        except OSError:
            pass


def _classify_exit(name: str, rc: int) -> WorkerExit:
    from repro.campaign.worker import EXIT_DRAINED_QUARANTINE

    if rc in (0, EXIT_DRAINED_QUARANTINE):
        reason = "drained"
    elif rc == EXIT_CELL_TIMEOUT:
        reason = "timeout"
    elif rc < 0:
        reason = "signal"
    else:
        reason = "error"
    return WorkerExit(worker=name, exitcode=rc, reason=reason)


def _emit_worker_died(bus, exit_info: WorkerExit) -> None:
    from repro.obs.events import WorkerDied

    bus.emit(WorkerDied(
        time=0.0, worker=exit_info.worker, reason=exit_info.reason,
        exitcode=exit_info.exitcode,
    ))
