#!/usr/bin/env python3
"""Observability overhead guard: the sink layer must be free when idle.

Runs the standard Table-II scenario (``paper_default``) four ways in one
process and proves they are **bit-identical** (equal
``ExperimentResult.fingerprint``, every MAFIC verdict included) before
measuring anything:

* ``baseline``   — ``run_experiment(config)``: no bus argument at all
  (the victim collector streams; there is no other).
* ``nullsink``   — ``bus=NULL_BUS``: every producer holds a sink
  reference and pays its truthiness guard, nothing is ever emitted.
  This is the shape every batch/campaign run has after the refactor.
* ``live-sink``  — a bus with :class:`~repro.obs.aggregators.LiveMetrics`
  subscribed: every event is constructed and folded, the serve-mode
  worst case.
* ``recording``  — a bus with a
  :class:`~repro.obs.recorder.JsonlSink` recording every event to a
  gzip flight recording, the ``--record`` worst case.

The **gates**: ``nullsink`` must be within 2% of
``baseline`` measured in the same process, as the minimum paired
per-round ratio (see ``_measure``) — observability that taxes the
batch hot path fails the build.  ``live-sink`` and
``recording`` are *observed* modes: they may cost real work per event,
but each carries its own budget (``MAX_LIVE_OVERHEAD`` /
``MAX_RECORDING_OVERHEAD``) so an accidental quadratic fold or
per-event fsync can't land silently.

``--check`` is the CI mode: a tiny scenario, invariants only (bit
identity, live-sink saw events, a record→read-back→refold round-trip
reproduces the live snapshot), never wall time.

Run:  PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--rounds N] [--check]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import tempfile
import time
from pathlib import Path

from repro.experiments.presets import paper_default
from repro.experiments.runner import run_experiment
from repro.obs import NULL_BUS, EventBus, LiveMetrics
from repro.obs.recorder import JsonlSink, open_recording

#: Same-process overhead gate for the not-observed modes.
MAX_IDLE_OVERHEAD = 0.02

#: Budget for an attached LiveMetrics folding every event (serve mode).
#: Measures +13% to +23% on a 2-core VM; about twice that is the gate.
MAX_LIVE_OVERHEAD = 0.45

#: Budget for a JsonlSink writing every event to a gzip recording.
#: Measures +15% to +41% on a 2-core VM; a write per event or a
#: JSONEncoder rebuilt per event puts it above this.
MAX_RECORDING_OVERHEAD = 0.75

MODES = ("baseline", "nullsink", "live-sink", "recording")


def _run_mode(name: str, config, record_path: str):
    """One run under the named observability shape; returns (result, live)."""
    if name == "baseline":
        return run_experiment(config), None
    if name == "nullsink":
        return run_experiment(config, bus=NULL_BUS), None
    if name == "recording":
        sink = JsonlSink(record_path, metadata={"benchmark": "obs_overhead"})
        bus = EventBus()
        bus.subscribe(sink)
        try:
            result = run_experiment(config, bus=bus)
        finally:
            sink.close()
        return result, None
    live = LiveMetrics(window=1.0)
    bus = EventBus()
    bus.subscribe(live)
    return run_experiment(config, bus=bus), live


def _measure(config, rounds: int, record_path: str):
    """Interleaved measurement of every mode; parity-checked.

    Overheads are gated on the **minimum paired per-round ratio**, not
    the ratio of global minimum walls.  Shared hosts drift through
    slow phases lasting longer than one ~0.7s run; two modes measured
    in the same round share that phase, so their ratio cancels it,
    while global mins can land in different phases and report a
    phantom ±5% "overhead".  A real systematic tax shows up in *every*
    round's ratio; noise doesn't survive the min.
    """
    round_walls = {name: [] for name in MODES}
    fingerprints: dict[str, str] = {}
    events = 0
    last_live = None
    run_experiment(config)  # warm imports/caches outside the clock
    for _ in range(rounds):
        for name in MODES:
            # The observed modes allocate ~100k event objects per run;
            # collect that debt outside the clock so a later mode's
            # garbage can't tax an earlier mode's next measurement.
            gc.collect()
            started = time.perf_counter()
            result, live = _run_mode(name, config, record_path)
            wall = time.perf_counter() - started
            round_walls[name].append(wall)
            fingerprints[name] = result.fingerprint()
            if name == "baseline":
                events = result.events_executed
            if live is not None:
                last_live = live
    walls = {name: min(values) for name, values in round_walls.items()}
    overheads = {
        name: min(
            wall / base - 1.0
            for wall, base in zip(round_walls[name], round_walls["baseline"])
        )
        for name in MODES if name != "baseline"
    }
    reference = fingerprints["baseline"]
    mismatched = [
        name for name, fp in fingerprints.items() if fp != reference
    ]
    return walls, overheads, events, mismatched, last_live


def _recording_roundtrip_failures(config, record_path: str) -> list[str]:
    """Record and fold one run on a shared bus, then refold the file.

    The flight recorder's correctness property: replaying the recorded
    stream through a fresh LiveMetrics must land on the exact snapshot
    the live aggregator computed during the run.  Both sinks must ride
    the *same* bus — ``run.completed`` carries wall-clock fields, so
    two separate runs can never be snapshot-identical.
    """
    live = LiveMetrics(window=1.0)
    sink = JsonlSink(record_path, metadata={"benchmark": "obs_overhead"})
    bus = EventBus()
    bus.subscribe(live)
    bus.subscribe(sink)
    try:
        run_experiment(config, bus=bus)
    finally:
        sink.close()

    failures = []
    recording = open_recording(record_path)
    refolded = LiveMetrics(window=1.0)
    events = 0
    for event in recording.events():
        refolded.emit(event)
        events += 1
    if events <= 0:
        failures.append("recording is empty")
    if recording.unknown_kinds:
        failures.append(
            f"recording round-trip skipped {recording.unknown_kinds} "
            "unknown-kind lines"
        )
    if refolded.snapshot() != live.snapshot():
        failures.append(
            "refolded recording snapshot differs from the live snapshot"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5,
                        help="interleaved measurement rounds (min wall wins)")
    parser.add_argument("--check", action="store_true",
                        help="CI smoke: tiny scenario, assert invariants "
                        "(identical results, live sink fed), never wall time")
    parser.add_argument(
        "--out", type=str,
        default=str(Path(__file__).resolve().parent.parent / "BENCH_obs.json"),
    )
    args = parser.parse_args()

    config = paper_default().with_overrides(seed=args.seed)
    if args.check:
        config = config.with_overrides(
            total_flows=10, n_routers=8, duration=2.0
        )
        rounds = 1
    else:
        rounds = args.rounds

    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
        record_path = os.path.join(tmp, "bench.jsonl.gz")
        walls, overheads, events, mismatched, live = _measure(
            config, rounds, record_path
        )
        roundtrip_failures = _recording_roundtrip_failures(
            config, os.path.join(tmp, "roundtrip.jsonl.gz")
        )

    if mismatched:
        for name in mismatched:
            print(f"FATAL: mode {name!r} diverged from baseline results")
        return 1
    print("all observability modes bit-identical "
          f"(events={events})")

    snap = live.snapshot() if live is not None else {}
    if args.check:
        # Invariants only; explicit checks, not asserts, so the job
        # still gates under python -O / PYTHONOPTIMIZE.
        failures = []
        if snap.get("arrivals_total", 0) <= 0:
            failures.append("live sink saw no arrivals")
        if snap.get("events_executed", 0) <= 0:
            failures.append("live sink saw no engine stats")
        if not snap.get("verdicts_total"):
            failures.append("live sink saw no verdicts")
        failures.extend(roundtrip_failures)
        if failures:
            for failure in failures:
                print(f"FATAL: {failure}")
            return 1
        print("obs-overhead smoke invariants hold "
              f"(live sink folded {snap['arrivals_total']} arrivals; "
              "fingerprints identical with and without observers; "
              "record->refold round-trip reproduces the live snapshot)")
        return 0

    if roundtrip_failures:
        for failure in roundtrip_failures:
            print(f"FATAL: {failure}")
        return 1

    budgets = {
        "nullsink": MAX_IDLE_OVERHEAD,
        "live-sink": MAX_LIVE_OVERHEAD,
        "recording": MAX_RECORDING_OVERHEAD,
    }
    failed = [
        name for name, budget in budgets.items()
        if overheads[name] > budget
    ]
    record = {
        "benchmark": "observability_overhead",
        "scenario": "paper_default (Table II)",
        "seed": args.seed,
        "rounds": rounds,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "events_executed": events,
        "bit_identical_across_modes": True,
        "wall_seconds": {name: round(wall, 4) for name, wall in walls.items()},
        "overhead_method": "min paired per-round ratio",
        "overhead_vs_baseline": {
            name: round(value, 4) for name, value in overheads.items()
        },
        "max_idle_overhead": MAX_IDLE_OVERHEAD,
        "max_live_overhead": MAX_LIVE_OVERHEAD,
        "max_recording_overhead": MAX_RECORDING_OVERHEAD,
        "live_sink_arrivals_folded": snap.get("arrivals_total"),
        "recording_roundtrip_ok": not roundtrip_failures,
        "note": (
            "nullsink is the idle mode: producers pay only a "
            "falsy-bus pointer test, so the batch path must stay within "
            f"{MAX_IDLE_OVERHEAD:.0%} of a bus-free run measured in the "
            "same process (min paired per-round ratio, so shared-host "
            "phase noise cancels).  live-sink (an attached LiveMetrics folding "
            "every event — what `repro serve` pays while someone is "
            "watching) and recording (a JsonlSink gzip flight recording, "
            "the --record worst case) do real per-event work and carry "
            "their own looser budgets.  Cross-process walls are never gated."
        ),
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for name, wall in walls.items():
        extra = ""
        if name != "baseline":
            extra = f"  ({overheads[name]:+.2%} vs baseline)"
        print(f"  {name:12s} {wall:.3f}s{extra}")
    print(f"wrote {args.out}")

    if failed:
        for name in failed:
            print(
                f"FATAL: observability mode {name!r} exceeds its "
                f"{budgets[name]:.0%} overhead budget "
                f"({overheads[name]:+.2%})"
            )
        return 1
    print(
        f"all modes within budget (idle <{MAX_IDLE_OVERHEAD:.0%}, "
        f"live <{MAX_LIVE_OVERHEAD:.0%}, "
        f"recording <{MAX_RECORDING_OVERHEAD:.0%})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
