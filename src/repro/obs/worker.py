"""Campaign shard worker: ``python -m repro.obs.worker``.

The multiplexed half of multi-worker serve mode.  The parent
(:func:`repro.obs.serve._serve_campaign_parallel`) writes one JSON
assignment on stdin::

    {"spec_path": "...", "root": "...", "series_bin_width": 0.05,
     "run_ids": ["...", ...]}

and this process executes exactly those planned cells with the same
``run_experiment`` + ``store.write_result`` the batch orchestrator
uses (the store is multi-writer safe), while streaming its **entire**
event bus to stdout as JSON lines — the parent decodes them back into
typed events and feeds its own bus, so one dashboard shows every
worker.  Anything human-readable goes to stderr; stdout is protocol.

High-frequency per-packet kinds ride the pipe's block buffering; the
stream is flushed on every low-frequency event (verdicts, epochs, run
boundaries) so the parent's live view lags by at most a buffer of
packet-level lines.
"""

from __future__ import annotations

import json
import sys

from repro.obs.events import MetricEvent, encode_line

#: Kinds that ride the block buffer; everything else forces a flush.
_BUFFERED_KINDS = frozenset({"victim.arrival", "defense.decision"})


class StdoutJsonSink:
    """Stream every bus event as one JSON line on stdout."""

    def __init__(self, stream=None) -> None:
        self._stream = stream if stream is not None else sys.stdout
        self.events_written = 0

    def emit(self, event: MetricEvent) -> None:
        self._stream.write(encode_line(event))
        self.events_written += 1
        if event.kind not in _BUFFERED_KINDS:
            self._stream.flush()

    def close(self) -> None:
        try:
            self._stream.flush()
        except ValueError:
            pass  # interpreter teardown already closed stdout


def work(assignment: dict) -> int:
    """Execute the assigned run_ids; returns the process exit code."""
    from repro.campaign.orchestrator import open_store
    from repro.campaign.spec import CampaignSpec
    from repro.experiments.runner import run_experiment
    from repro.obs.bus import EventBus
    from repro.obs.events import CampaignRun

    spec = CampaignSpec.load(assignment["spec_path"])
    series_bin_width = float(assignment.get("series_bin_width", 0.05))
    store = open_store(spec, assignment["root"])
    wanted = set(assignment["run_ids"])
    plan = {run.run_id: run for run in spec.plan()}
    unknown = wanted - plan.keys()
    if unknown:
        print(
            f"worker: {len(unknown)} assigned run_ids are not in the "
            f"plan of {spec.name!r} (stale parent?)",
            file=sys.stderr,
        )
        return 2

    bus = EventBus()
    sink = StdoutJsonSink()
    bus.subscribe(sink)
    # Preserve the parent's planning order within this shard, so the
    # event stream (and any recording of it) is deterministic per shard.
    assigned = [run for run in plan.values() if run.run_id in wanted]
    for planned in assigned:
        result = run_experiment(planned.config, bus=bus)
        store.write_result(
            result, point=planned.point, series_bin_width=series_bin_width
        )
        pct = result.summary.as_percent()
        bus.emit(CampaignRun(
            time=0.0, run_id=planned.run_id, seed=planned.seed,
            point=dict(planned.point), alpha=pct["alpha"],
            beta=pct["beta"], wall_seconds=result.wall_seconds,
        ))
    bus.close()
    return 0


def main() -> int:
    try:
        assignment = json.loads(sys.stdin.read())
    except json.JSONDecodeError as exc:
        print(f"worker: bad assignment on stdin: {exc}", file=sys.stderr)
        return 2
    try:
        return work(assignment)
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        return 1  # parent went away; nothing left to stream to


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
