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

The one per-flow record a run keeps is the defence collector's verdict
log, one entry per table verdict (and under source rotation every
attack packet is a flow of its own).  It is packed columns: a float, a
64-bit label and two one-byte codes, ~18 bytes a verdict, where a list
of ``(now, label, verdict, truth)`` tuples held ~80.

Such a flow leaves one number in each table that holds it: its label is
its key's 64-bit hash as a plain ``int``, the NFT maps that to the
admission time, and the victim sink keeps the seq of a flow seen only
beyond a gap.
"""

import gc
import inspect
import tracemalloc

from repro.core.tables import FlowTables
from repro.experiments.presets import paper_default, rotation_stress
from repro.experiments.runner import run_experiment
from repro.metrics.collectors import DefenseMetricsCollector
from repro.transport.sink import AckingSink

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


#: Bytes a recorded verdict may retain: its 18 packed bytes plus the
#: columns' over-allocation and fixed headers.  Seen: ~21 (a tuple per
#: verdict: ~81).
VERDICT_BYTES = 32


def test_a_verdict_costs_its_packed_bytes():
    """Everything ``on_verdict`` allocated that a finished run still
    holds, per verdict, on a tiny rotation run (a verdict per probed
    one-packet flow)."""
    config = rotation_stress().with_overrides(
        total_flows=10, n_routers=8, duration=2.0, seed=3
    )
    lines, first = inspect.getsourcelines(DefenseMetricsCollector.on_verdict)
    on_verdict = range(first, first + len(lines))
    gc.collect()
    tracemalloc.start(2)  # the log's append, and on_verdict calling it
    try:
        result = run_experiment(config)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(
        trace.size for trace in snapshot.traces
        if any(
            frame.filename.replace("\\", "/").endswith("/repro/metrics/collectors.py")
            and frame.lineno in on_verdict
            for frame in trace.traceback
        )
    )
    verdicts = len(result.scenario.defense_collector.verdicts)
    assert verdicts > 100
    assert held <= VERDICT_BYTES * verdicts, (held, verdicts)


#: Bytes a one-packet flow may leave in MAFIC's label and NFT and in the
#: victim sink's per-flow state: one dict slot in the NFT and one in the
#: sink, with the dicts' over-allocation.  Seen: ~96 (a FlowLabel, an
#: NftEntry, a sink record and a one-element reorder set: ~485).
ONE_PACKET_FLOW_BYTES = 160


def test_a_one_packet_flow_leaves_one_number_in_each_table():
    """What the label, the NFT and the sink still hold at the end of a
    tiny rotation run, per flow: every nice verdict is an NFT entry and
    most attack packets that reach the victim are a flow's only one,
    landing beyond a gap."""
    config = rotation_stress().with_overrides(
        total_flows=10, n_routers=8, duration=2.0, seed=3
    )

    def lines(function):
        source, first = inspect.getsourcelines(function)
        return range(first, first + len(source))

    promote = lines(FlowTables.promote_to_nice)
    arrival = lines(AckingSink.handle_packet)
    gc.collect()
    tracemalloc.start()
    try:
        result = run_experiment(config)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    label = nft = sink = 0
    for trace in snapshot.traces:
        frame = trace.traceback[0]
        name = frame.filename.replace("\\", "/")
        if name.endswith("/repro/core/labels.py"):
            label += trace.size
        elif name.endswith("/repro/core/tables.py") and frame.lineno in promote:
            nft += trace.size
        elif name.endswith("/repro/transport/sink.py") and frame.lineno in arrival:
            sink += trace.size
    scenario = result.scenario
    admitted = sum(len(agent.tables.nft) for agent in scenario.agents.values())
    received = len(scenario.tcp_sink.frontiers())
    assert admitted > 100 and received > 100
    per_flow = (label + nft) / admitted + sink / received
    assert per_flow <= ONE_PACKET_FLOW_BYTES, (label, nft, admitted, sink, received)
