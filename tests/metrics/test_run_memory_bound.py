"""A run's victim-side and sender-side state does not grow with its length.

The victim collector streams every arrival into a per-bin series and
keeps only the arrivals the β before-window can still need; a TCP sender
keeps its window and its in-flight segments, no per-ACK history.  So the
memory a run retains from ``metrics/collectors.py`` and
``transport/tcp.py`` is set by the number of bins, flows and segments in
flight, not by the number of packets.  Doubling a tiny paper-default run
(from 4 s to 8 s of simulated time, ~2.2x the events) must leave the
blocks ``tracemalloc`` attributes to those two files where they were, up
to TCP windows still opening.  A list with one tuple per arrival or per
ACK adds thousands.
"""

import gc
import tracemalloc

from repro.experiments.presets import paper_default
from repro.experiments.runner import run_experiment

FILES = ("*/repro/metrics/collectors.py", "*/repro/transport/tcp.py")

#: Blocks the longer run may add: TCP windows still opening (each
#: in-flight segment holds one send-time float).  Seen: +11.
SLACK_BLOCKS = 32


def _retained(duration: float) -> tuple[dict[str, int], int]:
    """Blocks still allocated from :data:`FILES` by line, with the run
    (and so its scenario) alive; and the run's event count."""
    config = paper_default().with_overrides(
        total_flows=10, n_routers=8, duration=duration, seed=3
    )
    gc.collect()
    tracemalloc.start()
    try:
        result = run_experiment(config)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    snapshot = snapshot.filter_traces(
        [tracemalloc.Filter(True, pattern) for pattern in FILES]
    )
    by_line = {}
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        name = frame.filename.replace("\\", "/").rsplit("/", 1)[-1]
        by_line[f"{name}:{frame.lineno}"] = stat.count
    return by_line, result.events_executed


def test_collector_and_sender_state_does_not_grow_with_the_run():
    short, short_events = _retained(4.0)
    long, long_events = _retained(8.0)
    assert long_events > 2 * short_events
    grown = {
        line: count - short.get(line, 0)
        for line, count in long.items()
        if count > short.get(line, 0)
    }
    assert sum(long.values()) <= sum(short.values()) + SLACK_BLOCKS, grown
