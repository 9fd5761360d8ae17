"""The ``python -m repro campaign`` subcommand family.

::

    python -m repro campaign run     spec.toml [--root DIR] [--jobs N]
                                     [--retry-failed] [--max-attempts K] ...
    python -m repro campaign resume  spec.toml [--root DIR] [--jobs N]
    python -m repro campaign status  spec.toml [--root DIR]
    python -m repro campaign workers spec.toml [--root DIR]
    python -m repro campaign report  spec.toml [--json F] [--csv F]
    python -m repro campaign figures spec.toml [--root DIR] [--out DIR]
    python -m repro campaign gc      spec.toml [--root DIR] [--apply]
    python -m repro campaign diff    <store-A> <store-B> [--tolerance X]

``run`` and ``resume`` are the same operation — plan, skip every run
whose artifact exists, execute the rest — except that ``resume`` insists
the store already exists (catching a mistyped ``--root`` before it
silently recomputes everything).  Cells execute through the lease-pull
loop of :mod:`repro.campaign.worker` — in this process at ``--jobs 1``,
else in ``--jobs`` worker subprocesses that survive any of them dying
(:mod:`repro.campaign.pool`).  One failure behaviour either way: a cell
that raises is charged to the store's failure ledger with its
traceback, retried after backoff, quarantined after ``--max-attempts``,
and the command exits 1 with the campaign incomplete;
``--retry-failed`` clears the ledger first.  ``status``
exits 0 only when the campaign is complete, so CI can gate on it;
``workers`` shows the live leases and the failure ledger.  ``figures``
regenerates the campaign's figure set from stored artifacts without
re-simulating; ``gc`` prunes unplanned artifacts, orphaned sidecars,
stale leases, resolved failure records, and leftover temp files
(dry-run unless ``--apply``, which also rebuilds ``index.jsonl`` from
the artifacts).  ``diff`` takes two store *directories*, not a spec,
compares them cell by cell and exits 1 on any difference — the CI
teeth behind "chaos + resume is byte-identical to serial".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.campaign.orchestrator import (
    DEFAULT_ROOT,
    campaign_gc,
    campaign_status,
    open_store,
    resume_hint,
    run_campaign,
)
from repro.campaign.query import campaign_figures, campaign_report, report_rows
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import StoreError, atomic_write_text
from repro.campaign.worker import add_lease_flags
from repro.experiments.cli import _add_record_flag
from repro.util.registry import UnknownComponentError
from repro.util.validation import (
    check_non_negative, check_positive, checked_float, positive_int,
)


def add_parser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``campaign`` subcommand to the top-level CLI."""
    camp = sub.add_parser(
        "campaign",
        help="run, resume, inspect, and report experiment campaigns",
    )
    csub = camp.add_subparsers(dest="campaign_command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", help="campaign spec file (.toml or .json)")
        p.add_argument(
            "--root", default=DEFAULT_ROOT,
            help=f"artifact store root (default: ./{DEFAULT_ROOT})",
        )

    for verb, help_text in (
        ("run", "execute the campaign (skipping completed runs)"),
        ("resume", "like run, but the store must already exist"),
    ):
        p = csub.add_parser(
            verb, help=help_text,
            description="Cells run through one lease-pull loop: in this "
            "process at --jobs 1, else in N worker subprocesses on the "
            "same store.  A cell that raises never aborts the run: "
            "it is recorded in the store's failure ledger with its "
            "traceback, retried after exponential backoff, quarantined "
            "after --max-attempts, and the command exits 1 (campaign "
            "incomplete) with the error on stderr.",
        )
        common(p)
        p.add_argument(
            "--jobs", type=positive_int, default=None, metavar="N",
            help="workers (default: CPU count); 1 runs the loop in this "
            "process, N > 1 spawns N worker subprocesses",
        )
        p.add_argument(
            "--max-runs", type=int, default=None, metavar="K",
            help="attempt at most K cells this invocation, in this "
            "process (implies --jobs 1)",
        )
        p.add_argument(
            "--profile", default=None, metavar="FILE",
            help="cProfile ONE missing cell (implies --jobs 1 "
            "--max-runs 1) and dump pstats to FILE",
        )
        _add_record_flag(p)
        add_lease_flags(p)
        p.add_argument(
            "--retry-failed", action="store_true",
            help="clear the failure ledger first, so quarantined cells "
            "are attempted again",
        )
        p.add_argument(
            "--compress-series", action="store_true",
            help="write gzip series sidecars from now on (recorded in "
            "the manifest; existing plain sidecars stay readable)",
        )

    p = csub.add_parser(
        "status", help="planned vs completed runs (exit 1 if incomplete)"
    )
    common(p)

    p = csub.add_parser(
        "workers",
        help="show live worker leases and the failure/quarantine ledger",
    )
    p.add_argument(
        "--watch", action="store_true",
        help="refresh the view continuously until Ctrl-C",
    )
    p.add_argument(
        "--interval", type=checked_float(check_positive, "interval"),
        default=2.0,
        help="seconds between --watch refreshes (default: 2)",
    )
    common(p)

    p = csub.add_parser(
        "report", help="aggregate completed runs per axis point"
    )
    common(p)
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the full report payload as JSON")
    p.add_argument("--csv", default=None, metavar="FILE",
                   help="write the per-point table as CSV")
    p.add_argument("--confidence", type=float, default=0.95)

    p = csub.add_parser(
        "figures",
        help="regenerate the campaign's figures from stored runs "
        "(no simulation)",
    )
    common(p)
    p.add_argument(
        "--out", default=None, metavar="DIR",
        help="output directory (default: <store>/figures)",
    )

    p = csub.add_parser(
        "gc",
        help="prune unplanned artifacts, orphan sidecars, and temp files",
    )
    common(p)
    p.add_argument(
        "--apply", action="store_true",
        help="actually delete, then rebuild index.jsonl from the "
        "artifacts (default: dry run, print what would go)",
    )

    p = csub.add_parser(
        "diff",
        help="compare two stores cell-by-cell (exit 1 on differences)",
    )
    p.add_argument("store_a", help="first campaign store directory")
    p.add_argument("store_b", help="second campaign store directory")
    p.add_argument(
        "--tolerance", type=checked_float(check_non_negative, "tolerance"),
        default=0.0, metavar="X",
        help="absolute tolerance for numeric fields (default: 0.0 — "
        "bit-exact, the determinism contract)",
    )
    p.add_argument(
        "--limit", type=positive_int, default=20, metavar="N",
        help="print at most N differences (default: 20)",
    )


def cmd(args: argparse.Namespace) -> int:
    """Dispatch a parsed ``campaign`` invocation; returns the exit code."""
    if args.campaign_command == "diff":
        # The spec-less verb: it operates on store directories.
        try:
            return _cmd_diff(args)
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        spec = CampaignSpec.load(args.spec)
    except (ValueError, TypeError, OSError) as exc:
        # ValueError covers CampaignSpecError and malformed JSON/TOML;
        # TypeError covers shape mistakes like a scalar `seeds`.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.campaign_command in ("run", "resume"):
            try:
                return _cmd_run(spec, args)
            except KeyboardInterrupt:
                # run_campaign absorbs Ctrl-C during execution; this
                # catches the slivers before/after it (spec planning,
                # report printing) so no invocation ever tracebacks.
                print(
                    "\ninterrupted; completed artifacts are on disk — "
                    + resume_hint(args.spec, args.root),
                    file=sys.stderr,
                )
                return 130
        if args.campaign_command == "status":
            return _cmd_status(spec, args)
        if args.campaign_command == "workers":
            return _cmd_workers(spec, args)
        if args.campaign_command == "figures":
            return _cmd_figures(spec, args)
        if args.campaign_command == "gc":
            return _cmd_gc(spec, args)
        return _cmd_report(spec, args)
    except (ValueError, TypeError, UnknownComponentError, StoreError) as exc:
        # ValueError covers CampaignSpecError plus orchestrator argument
        # validation (bad --max-runs); TypeError fires when a
        # ``*_args`` axis names a kwarg its builder doesn't accept;
        # UnknownComponentError (a KeyError) fires when a spec names a
        # missing registry component.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def _cmd_run(spec: CampaignSpec, args: argparse.Namespace) -> int:
    from repro.obs.bus import CallbackSink, EventBus
    from repro.obs.recorder import recorded

    if args.campaign_command == "resume" and not open_store(spec, args.root).exists():
        print(
            f"error: no store for campaign {spec.name!r} under {args.root!r} "
            "(use 'campaign run' to start one)",
            file=sys.stderr,
        )
        return 2

    def on_run(event) -> None:
        point = ", ".join(f"{k}={v}" for k, v in event.point.items()) or "-"
        print(
            f"  run {event.run_id}  seed={event.seed}  {point}  "
            f"alpha={event.alpha:.2f}%  beta={event.beta:.2f}%  "
            f"({event.wall_seconds:.2f}s)",
            flush=True,
        )

    def on_worker(event) -> None:
        if event.kind == "worker.started":
            print(
                f"  worker {event.worker} up (pid {event.pid})", flush=True
            )
        elif event.kind == "worker.died":
            print(
                f"  worker {event.worker} died ({event.reason}, "
                f"exit {event.exitcode}); its lease will be reclaimed",
                flush=True,
            )

    bus = EventBus()
    bus.subscribe(CallbackSink(on_run), kinds=("campaign.run",))
    bus.subscribe(
        CallbackSink(on_worker), kinds=("worker.started", "worker.died")
    )
    with recorded(args.record, bus, {
        "command": f"campaign {args.campaign_command}",
        "campaign": spec.name,
        "spec_path": args.spec,
    }):
        report = run_campaign(
            spec,
            root=args.root,
            jobs=args.jobs,
            max_runs=args.max_runs,
            bus=bus,
            profile_path=args.profile,
            compress_series=args.compress_series or None,
            retry_failed=args.retry_failed,
            lease_ttl=args.lease_ttl,
            cell_timeout=args.cell_timeout,
            max_attempts=args.max_attempts,
        )
    state = "complete" if report.complete else "incomplete"
    print(
        f"campaign {report.name}: {report.planned} planned, "
        f"{report.cached} cached, {report.executed} executed "
        f"in {report.wall_seconds:.1f}s ({report.jobs} worker"
        f"{'s' if report.jobs != 1 else ''}) -> {state}"
    )
    print(f"store: {report.store_dir}")
    if report.deaths:
        print(
            f"  {report.deaths} worker deaths survived "
            "(leases reclaimed, cells re-executed)"
        )
    if report.quarantined:
        print(
            f"warning: {report.quarantined} cells quarantined after "
            "repeated failures — inspect with 'campaign workers "
            f"{args.spec} --root {args.root}', retry with "
            "'--retry-failed'",
            file=sys.stderr,
        )
    if report.interrupted:
        print(
            f"interrupted: {report.executed} new artifacts are on disk; "
            + resume_hint(args.spec, args.root),
            file=sys.stderr,
        )
        return 130
    if args.max_runs is None and args.profile is None \
            and not report.complete:
        return 1  # nothing capped the run, yet cells are missing
    return 0


def _cmd_status(spec: CampaignSpec, args: argparse.Namespace) -> int:
    status = campaign_status(spec, args.root)
    quarantined = (
        f", {status.quarantined} quarantined" if status.quarantined else ""
    )
    print(
        f"campaign {status.name}: {status.complete}/{status.planned} "
        f"runs complete ({len(status.missing)} missing, "
        f"{status.unplanned} unplanned artifacts{quarantined})"
    )
    for run in status.missing[:10]:
        point = ", ".join(f"{k}={v}" for k, v in run.point.items()) or "-"
        print(f"  missing {run.run_id}  seed={run.seed}  {point}")
    if len(status.missing) > 10:
        print(f"  ... and {len(status.missing) - 10} more")
    return 0 if status.is_complete else 1


def _cmd_workers(spec: CampaignSpec, args: argparse.Namespace) -> int:
    import time

    store = open_store(spec, args.root)
    if not store.exists():
        print(
            f"error: no store for campaign {spec.name!r} under "
            f"{args.root!r}",
            file=sys.stderr,
        )
        return 2
    if not args.watch:
        _render_workers(spec, store, time.time())
        return 0
    # Live refresh: ANSI home+clear then a fresh render, until Ctrl-C.
    # Each frame re-reads leases and the failure ledger from disk, so a
    # watching terminal tracks takeovers/retries as workers write them.
    try:
        while True:
            print("\x1b[H\x1b[2J", end="")
            now = time.time()
            stamp = time.strftime("%H:%M:%S", time.localtime(now))
            print(
                f"[{stamp}] watching every {args.interval:g}s "
                "(Ctrl-C to stop)"
            )
            _render_workers(spec, store, now)
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def _render_workers(spec: CampaignSpec, store, now: float) -> None:
    leases = store.iter_leases()
    print(f"campaign {spec.name}: {len(leases)} leases")
    for lease in leases:
        state = "EXPIRED" if lease.expired(now) else "live"
        age = now - lease.heartbeat_at
        print(
            f"  {lease.run_id}  {lease.worker}  pid={lease.pid} "
            f"host={lease.host}  heartbeat {age:.1f}s ago "
            f"(ttl {lease.ttl:.0f}s) [{state}]"
        )
    failures = store.iter_failures()
    print(f"failure ledger: {len(failures)} records")
    for record in failures:
        state = (
            "QUARANTINED" if record.quarantined
            else f"retry in {max(0.0, record.next_retry_at - now):.1f}s"
        )
        error = record.error.splitlines()[0] if record.error else "?"
        print(
            f"  {record.run_id}  attempts "
            f"{record.attempts}/{record.max_attempts} [{state}] "
            f"last worker {record.worker}: {error}"
        )


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.campaign.diff import diff_stores

    diff = diff_stores(args.store_a, args.store_b, tolerance=args.tolerance)
    for label, ids in (
        (f"only in {diff.dir_a}", diff.missing_in_b),
        (f"only in {diff.dir_b}", diff.missing_in_a),
    ):
        for run_id in ids[: args.limit]:
            print(f"  {label}: {run_id}")
        if len(ids) > args.limit:
            print(f"  ... and {len(ids) - args.limit} more {label}")
    for delta in diff.differing[: args.limit]:
        print(
            f"  {delta.run_id}  {delta.field}: "
            f"{delta.a!r} != {delta.b!r}"
        )
    if len(diff.differing) > args.limit:
        print(f"  ... and {len(diff.differing) - args.limit} more deltas")
    n_issues = (
        len(diff.missing_in_a) + len(diff.missing_in_b)
        + len(diff.differing)
    )
    if diff.identical:
        print(
            f"diff: {diff.compared} common cells identical "
            f"(tolerance {args.tolerance})"
        )
        return 0
    print(
        f"diff: {n_issues} differences across {diff.compared} common "
        f"cells ({len(diff.missing_in_b)} missing in B, "
        f"{len(diff.missing_in_a)} extra in B, "
        f"{len(diff.differing)} field deltas)",
        file=sys.stderr,
    )
    return 1


def _cmd_report(spec: CampaignSpec, args: argparse.Namespace) -> int:
    report = campaign_report(spec, args.root, confidence=args.confidence)
    if not report["points"]:
        print("no completed runs yet", file=sys.stderr)
        return 1
    rows = report_rows(report)

    def fmt(cell) -> str:
        return f"{cell:.4f}" if isinstance(cell, float) else str(cell)

    widths = [
        max(len(fmt(row[i])) for row in rows) for i in range(len(rows[0]))
    ]
    for row in rows:
        print("  ".join(fmt(cell).ljust(w) for cell, w in zip(row, widths)))
    print(
        f"\n{report['complete']}/{report['planned']} runs aggregated "
        f"({100 * report['confidence']:.0f}% CI)"
    )
    if args.json:
        from repro.analysis.export import write_json

        write_json(report, args.json)
        print(f"wrote {args.json}")
    if args.csv:
        from repro.analysis.export import write_rows_csv

        write_rows_csv(rows, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_figures(spec: CampaignSpec, args: argparse.Namespace) -> int:
    from repro.analysis.export import figure_to_dict, write_csv, write_json
    from repro.experiments.reporting import format_figure

    figures = campaign_figures(spec, args.root)
    if not figures:
        print(
            "no figures to regenerate (no completed runs, or no numeric "
            "axes to plot against)",
            file=sys.stderr,
        )
        return 1
    store = open_store(spec, args.root)
    out_dir = Path(args.out) if args.out else store.directory / "figures"
    out_dir.mkdir(parents=True, exist_ok=True)
    for figure in figures:
        stem = out_dir / figure.figure_id
        atomic_write_text(
            stem.with_suffix(".txt"), format_figure(figure) + "\n"
        )
        write_csv(figure, stem.with_suffix(".csv"))
        write_json(figure_to_dict(figure), stem.with_suffix(".json"))
        n_series = len(figure.series)
        print(
            f"  {figure.figure_id}: {n_series} series "
            f"({stem.with_suffix('.txt').name}, .csv, .json)"
        )
    print(f"wrote {len(figures)} figures to {out_dir}")
    return 0


def _cmd_gc(spec: CampaignSpec, args: argparse.Namespace) -> int:
    report = campaign_gc(spec, args.root, apply=args.apply)
    store_dir = report.store_dir
    for label, paths in (
        ("unplanned artifact", report.unplanned),
        ("orphan sidecar", report.orphan_sidecars),
        ("temp file", report.tmp_files),
        ("stale lease", report.stale_leases),
        ("resolved failure record", report.resolved_failures),
    ):
        for path in sorted(paths):
            verb = "deleted" if report.applied else "would delete"
            print(f"  {verb} {label}: {path.relative_to(store_dir)}")
    n = len(report.paths)
    if report.applied:
        print(f"gc: deleted {n} files from {store_dir}")
    else:
        print(
            f"gc: dry run, {n} files would be deleted from {store_dir} "
            "(pass --apply to delete)"
        )
    return 0
