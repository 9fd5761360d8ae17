"""The cell executor: ``run_worker`` / ``python -m repro.campaign.worker``.

This loop is the only code that turns a planned cell into an artifact.
``campaign run --jobs 1`` and in-process ``serve --campaign`` call
:func:`run_worker` directly; every ``--jobs N`` parent
(:mod:`repro.campaign.pool`) spawns N of::

    python -m repro.campaign.worker campaigns/<name> [--events] ...

The store's manifest carries the spec snapshot, so the worker needs no
spec file — any process (or any *host*, on a shared filesystem) that
can see the directory can help execute the campaign.  The loop per
cell:

1. skip it when its artifact exists (``store.has`` — the resume
   predicate) or its failure record says quarantined / backing off;
2. claim it by atomically creating ``leases/<run_id>.json``
   (:meth:`CampaignStore.try_claim`);
3. execute it with a watchdog thread that re-stamps the lease
   heartbeat and enforces ``--cell-timeout`` (a wedged simulation
   records its failure, then ``os._exit``\\ s — the lease expires and
   the *next* attempt backs off exponentially);
4. release the claim by writing the artifact (atomic) and unlinking
   the lease.

An exception charges one attempt in the ``failed/`` ledger (with the
traceback) and the cell retries after exponential backoff until
quarantined — never silently dropped.  The worker exits 0 once every
planned cell is done, and :data:`EXIT_DRAINED_QUARANTINE` (3) when the
only cells left are quarantined ones, so the pool parent — and shell
scripts — can tell "finished" from "gave up on some cells".

Correctness never depends on any of the bookkeeping here: cells are
content-addressed, deterministic, and atomically written, so a worker
SIGKILLed at *any* instant (the ``REPRO_CHAOS`` harness does exactly
that) costs at most the re-execution of its in-flight cell.

With ``--events`` the worker streams ``worker.started`` /
``worker.heartbeat`` / ``campaign.run`` events as JSON lines on stdout
and the pool parent decodes them back onto its own bus; ``--sim-events``
adds each cell's simulation events to that stream (what a dashboard
parent wants and a batch parent must not pay for).  Anything
human-readable goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time
import traceback
import zlib
from dataclasses import dataclass
from typing import Callable

from repro.campaign.chaos import chaos_active, chaos_point
from repro.campaign.spec import CampaignSpec, PlannedRun
from repro.campaign.store import (
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_ATTEMPTS,
    CampaignStore,
    Lease,
    StoreError,
)
from repro.util.validation import check_positive, checked_float, positive_int

#: ``os._exit`` code of the cell-timeout watchdog (EX_TEMPFAIL: the
#: attempt failed, the pool should respawn and the cell will back off).
EXIT_CELL_TIMEOUT = 75

#: Exit code when the worker drained the plan but quarantined cells
#: remain — "I finished, but the campaign is not complete".
EXIT_DRAINED_QUARANTINE = 3

#: Idle wait between claim sweeps when every remaining cell is either
#: leased by someone else or backing off.
DEFAULT_POLL_INTERVAL = 0.2


@dataclass
class WorkerReport:
    """What one :func:`run_worker` invocation did."""

    worker: str
    executed: int = 0
    failed: int = 0
    quarantined: int = 0   # quarantined cells remaining at exit
    remaining: int = 0     # cells still missing at exit (incl. quarantined)

    @property
    def exit_code(self) -> int:
        if self.remaining == 0:
            return 0
        return EXIT_DRAINED_QUARANTINE


def worker_name() -> str:
    """Default worker identity: ``host:pid`` (unique per live process)."""
    return f"{socket.gethostname()}:{os.getpid()}"


class StdoutJsonSink:
    """Stream every bus event as one JSON line on stdout (``--events``).

    High-frequency per-packet kinds ride the pipe's block buffering;
    every other event flushes, so the parent's live view lags by at
    most a buffer of packet-level lines.
    """

    _BUFFERED_KINDS = frozenset({"victim.arrival", "defense.decision"})

    def emit(self, event) -> None:
        from repro.obs.events import encode_line

        sys.stdout.write(encode_line(event))
        if event.kind not in self._BUFFERED_KINDS:
            sys.stdout.flush()

    def close(self) -> None:
        sys.stdout.flush()


def run_worker(
    store_dir,
    worker: str | None = None,
    *,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    cell_timeout: float | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    max_cells: int | None = None,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    sim_events: bool = False,
    bus=None,
    run_cell: Callable | None = None,
    on_filed: Callable[[], None] | None = None,
) -> WorkerReport:
    """Pull and execute plan cells until nothing claimable remains.

    ``max_cells`` bounds how many cells this invocation *attempts*
    (executed + failed) — the hook tests use to stop a worker at an
    exact store state.  ``bus`` (an :class:`~repro.obs.bus.EventBus`,
    the caller's to close) receives ``worker.started`` /
    ``worker.heartbeat`` / ``campaign.run``, and with ``sim_events``
    each cell's simulation events as well.

    ``run_cell`` is the one seam: how a config becomes a result.  It is
    called as ``run_cell(config, series_bin_width=..., bus=...)`` and
    defaults to :func:`~repro.experiments.runner.run_experiment`;
    everything around it — claim, heartbeat, chaos points, artifact,
    release, ledger — is the same for every caller.  ``on_filed`` is
    called once per cell this worker files, after its artifact landed.
    """
    store = CampaignStore(store_dir)
    if not store.exists():
        raise StoreError(f"no campaign store at {store.directory}")
    spec = CampaignSpec.from_dict(store.read_manifest())
    series_bin_width = store.series_bin_width()
    if series_bin_width is None:
        series_bin_width = 0.05
    name = worker or worker_name()

    from repro.obs.events import WorkerStarted

    plan = spec.plan()
    # Start each worker's sweep at a name-derived offset so a fleet
    # doesn't stampede the same first cell (claims make the contention
    # harmless, just wasteful).  crc32, not hash(): per-process hash
    # salting would make the offset unreproducible.
    if plan:
        offset = zlib.crc32(name.encode("utf-8")) % len(plan)
        plan = plan[offset:] + plan[:offset]

    if bus:
        bus.emit(WorkerStarted(
            time=0.0, worker=name, pid=os.getpid(),
            host=socket.gethostname(), store=str(store.directory),
            cells=len(plan),
        ))

    report = WorkerReport(worker=name)
    while True:
        progress = False
        next_retry: float | None = None
        for planned in plan:
            if max_cells is not None \
                    and report.executed + report.failed >= max_cells:
                break
            run_id = planned.run_id
            if store.has(run_id):
                continue
            now = time.time()
            record = store.read_failure(run_id)
            if record is not None and not record.retryable(now):
                if not record.quarantined:
                    next_retry = (
                        record.next_retry_at if next_retry is None
                        else min(next_retry, record.next_retry_at)
                    )
                continue
            lease = store.try_claim(run_id, name, ttl=lease_ttl, now=now)
            if lease is None:
                continue  # someone live holds it; sweep on
            chaos_point("claim")  # crash harness: lease filed, cell not run
            ok = _execute_cell(
                store, planned, lease, run_cell,
                series_bin_width=series_bin_width,
                cell_timeout=cell_timeout,
                max_attempts=max_attempts,
                bus=bus,
                sim_events=sim_events,
                worker=name,
                cells_done=report.executed,
            )
            progress = True
            if ok:
                report.executed += 1
                if on_filed is not None:
                    on_filed()
            else:
                report.failed += 1

        quarantined = store.quarantined_ids()
        missing = [p for p in plan if not store.has(p.run_id)]
        report.remaining = len(missing)
        report.quarantined = len(
            {p.run_id for p in missing} & quarantined
        )
        if max_cells is not None \
                and report.executed + report.failed >= max_cells:
            break
        claimable = [p for p in missing if p.run_id not in quarantined]
        if not claimable:
            break  # done, or only quarantined cells left
        if not progress:
            # Everything claimable is either leased by a live worker or
            # backing off; wait for a lease to expire / a retry to come
            # due, then sweep again.
            delay = poll_interval
            if next_retry is not None:
                delay = min(
                    max(poll_interval, next_retry - time.time()),
                    max(poll_interval, lease_ttl),
                )
            time.sleep(max(0.05, delay))
    return report


def _execute_cell(
    store: CampaignStore,
    planned: PlannedRun,
    lease: Lease,
    run_cell: Callable | None,
    *,
    series_bin_width: float,
    cell_timeout: float | None,
    max_attempts: int,
    bus,
    sim_events: bool,
    worker: str,
    cells_done: int,
) -> bool:
    """Run one claimed cell to an artifact or a ledger record.

    The watchdog thread re-stamps the lease every ``ttl/3`` and — when
    ``cell_timeout`` is set — records a timeout failure and
    ``os._exit``\\ s the whole process.  That is deliberate: a wedged
    simulation cannot be cancelled from a sister thread, and an
    orphaned cell-subprocess would outlive the SIGKILLs the chaos
    harness delivers; dying whole keeps "worker gone" the *only*
    failure shape the recovery machinery must handle.  The ledger write
    lands (atomically) before the exit, so the wedge is never silent.
    (Which is why a parent that must survive — a CLI, a dashboard —
    only sets ``cell_timeout`` on worker subprocesses.)
    """
    from repro.obs.events import CampaignRun, WorkerHeartbeat

    if run_cell is None:
        # Looked up per cell, not bound at import: tests swap the
        # simulation out through the module attribute.
        from repro.experiments.runner import run_experiment as run_cell

    start = time.monotonic()
    stop = threading.Event()

    def watchdog() -> None:
        interval = max(0.05, min(1.0, lease.ttl / 3.0))
        while not stop.wait(interval):
            elapsed = time.monotonic() - start
            if cell_timeout is not None and elapsed > cell_timeout:
                store.record_failure(
                    planned.run_id, worker,
                    f"cell timeout: no result after {elapsed:.1f}s "
                    f"(limit {cell_timeout:.1f}s)",
                    max_attempts=max_attempts,
                )
                store.release_lease(lease)
                try:
                    sys.stderr.write(
                        f"worker {worker}: cell {planned.run_id} timed "
                        f"out after {elapsed:.1f}s; exiting\n"
                    )
                    sys.stderr.flush()
                except Exception:
                    pass
                os._exit(EXIT_CELL_TIMEOUT)
            store.refresh_lease(lease)
            if bus:
                bus.emit(WorkerHeartbeat(
                    time=0.0, worker=worker, run_id=planned.run_id,
                    elapsed=elapsed, executed=cells_done,
                ))

    thread = threading.Thread(
        target=watchdog, name=f"watchdog-{planned.run_id[:8]}", daemon=True
    )
    thread.start()
    run_bus = bus if sim_events else None
    if chaos_active("run"):
        # Arm the mid-run death: monitor epochs fire throughout the
        # simulation, so a subscriber that rolls the chaos dice on each
        # one can kill the worker with the cell half-executed.
        from repro.obs.bus import CallbackSink, EventBus

        observed = run_bus
        run_bus = EventBus()
        run_bus.subscribe(
            CallbackSink(lambda event: chaos_point("run")),
            kinds=("monitor.snapshot",),
        )
        if observed:
            run_bus.subscribe(CallbackSink(observed.emit))
    try:
        result = run_cell(
            planned.config,
            series_bin_width=series_bin_width,
            bus=run_bus,
        )
        chaos_point("result")  # crash harness: ran whole, nothing written
        store.write_result(
            result, point=planned.point, series_bin_width=series_bin_width
        )
        store.release_lease(lease)
        if bus:
            pct = result.summary.as_percent()
            bus.emit(CampaignRun(
                time=0.0, run_id=planned.run_id, seed=planned.seed,
                point=dict(planned.point), alpha=pct["alpha"],
                beta=pct["beta"], wall_seconds=result.wall_seconds,
            ))
        return True
    except KeyboardInterrupt:
        store.release_lease(lease)
        raise
    except Exception as exc:  # noqa: BLE001 - every failure goes to the ledger
        record = store.record_failure(
            planned.run_id, worker,
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(),
            max_attempts=max_attempts,
        )
        store.release_lease(lease)
        state = (
            "quarantined" if record.quarantined
            else f"retry {record.attempts}/{record.max_attempts}"
        )
        print(
            f"worker {worker}: cell {planned.run_id} failed "
            f"({type(exc).__name__}: {exc}) -> {state}",
            file=sys.stderr,
        )
        return False
    finally:
        stop.set()
        thread.join(timeout=5.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign.worker",
        description="pull and execute cells of a campaign store until "
        "nothing claimable remains",
    )
    parser.add_argument(
        "store_dir", help="campaign store directory (e.g. campaigns/<name>)"
    )
    parser.add_argument(
        "--worker", default=None, metavar="NAME",
        help="worker identity for leases/events (default: host:pid)",
    )
    parser.add_argument(
        "--lease-ttl", type=checked_float(check_positive, "lease-ttl"),
        default=DEFAULT_LEASE_TTL, metavar="S",
        help="heartbeat TTL before a lease counts as dead "
        f"(default: {DEFAULT_LEASE_TTL}s)",
    )
    parser.add_argument(
        "--cell-timeout", type=checked_float(check_positive, "cell-timeout"),
        default=None, metavar="S",
        help="kill this worker if one cell runs longer than S seconds "
        "(the attempt is charged to the ledger first)",
    )
    parser.add_argument(
        "--max-attempts", type=positive_int, default=DEFAULT_MAX_ATTEMPTS,
        metavar="K",
        help="failed attempts before a cell is quarantined "
        f"(default: {DEFAULT_MAX_ATTEMPTS})",
    )
    parser.add_argument(
        "--max-cells", type=positive_int, default=None, metavar="K",
        help="attempt at most K cells, then exit",
    )
    parser.add_argument(
        "--events", action="store_true",
        help="stream worker/campaign events as JSON lines on stdout "
        "(the pool parent's protocol)",
    )
    parser.add_argument(
        "--sim-events", action="store_true",
        help="with --events: stream each cell's simulation events too "
        "(a dashboard parent's view of its workers)",
    )
    args = parser.parse_args(argv)
    bus = None
    if args.events:
        from repro.obs.bus import EventBus

        bus = EventBus()
        bus.subscribe(StdoutJsonSink())
    try:
        report = run_worker(
            args.store_dir,
            worker=args.worker,
            lease_ttl=args.lease_ttl,
            cell_timeout=args.cell_timeout,
            max_attempts=args.max_attempts,
            max_cells=args.max_cells,
            sim_events=args.sim_events,
            bus=bus,
        )
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    finally:
        if bus:
            bus.close()
    print(
        f"worker {report.worker}: {report.executed} executed, "
        f"{report.failed} failed attempts, {report.remaining} remaining "
        f"({report.quarantined} quarantined)",
        file=sys.stderr,
    )
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
