"""What watching one event costs the simulation, in Python-level calls.

An observed run publishes an event per examined packet, per victim
arrival, per link drop: tens of thousands a run.  On the run batch each
costs its producer two frames and nothing else:

    <Event>.__init__ -> RunBatch.emit

no ``__bool__`` for the ``if bus:`` guard, and **no sink frame** — the
aggregator's lock and if-chain, the recorder's encoder and append all
run later, ``BATCH_EVENTS`` events in a row, where they cost what they
cost replayed from a file rather than what they cost cold between two
simulation events.  Across a full batch ``LiveMetrics`` takes its lock
once and ``JsonlSink`` writes once.  The bounds are pinned so a refactor
cannot quietly put a per-event sink call back.
"""

import sys
from collections import Counter

from repro.metrics.collectors import (
    DefenseMetricsCollector,
    StreamingVictimCollector,
)
from repro.obs import EventBus, LiveMetrics
from repro.obs.bus import BATCH_EVENTS, RunBatch
from repro.obs.recorder import JsonlSink
from repro.sim.engine import Simulator
from repro.sim.link import SimplexLink
from repro.sim.packet import FlowKey, Packet
from repro.sim.queues import DropTailQueue


class _Node:
    name = "n"

    def receive(self, packet, via=None):
        pass


def _watched(tmp_path):
    """A batch over a bus with the two sinks the ledger measures."""
    live = LiveMetrics(window=1.0)
    recorder = JsonlSink(str(tmp_path / "r.jsonl.gz"))
    bus = EventBus()
    bus.subscribe(live)
    bus.subscribe(recorder)
    return RunBatch(bus), live, recorder


def _frames(fn, *args):
    """(code name, file) -> calls, over one ``fn(*args)``."""
    calls = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[code.co_name, code.co_filename] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


def _producers(bus):
    """The three per-packet producers, each bound to ``bus``."""
    packet = Packet(flow=FlowKey(1, 2, 3, 80), seq=0)
    link = SimplexLink(
        Simulator(), _Node(), _Node(), 1e6, 0.001, DropTailQueue(8)
    )
    link.bus = bus
    return {
        "on_defense_drop": (
            DefenseMetricsCollector(bus=bus).on_defense_drop,
            packet, "probe", 1.0, "atr0",
        ),
        "on_packet": (
            StreamingVictimCollector(duration=5.0, bus=bus).on_packet,
            packet, 1.0,
        ),
        "_drop_event": (link._drop_event, "hook"),
    }


def test_an_event_costs_its_producer_two_frames_and_no_sink_frame(tmp_path):
    batch, live, recorder = _watched(tmp_path)
    unwatched = _producers(None)
    for name, (fn, *args) in _producers(batch).items():
        bare_fn, *bare_args = unwatched[name]
        extra = _frames(fn, *args) - _frames(bare_fn, *bare_args)
        # What is not observability is the producer's own argument list
        # (an enum's ``.value``, ``packet.flow_hash``).
        obs = {
            (code, file.rsplit("/", 1)[-1]): count
            for (code, file), count in extra.items()
            if "/repro/obs/" in file or file == "<string>"
        }
        assert obs == {("__init__", "<string>"): 1, ("emit", "bus.py"): 1}, name
        assert not any(code == "__bool__" for code, _ in extra), name
    assert live.snapshot()["sim_time"] == 0.0  # nothing reached a sink yet
    assert recorder.events_written == 0
    batch.flush()
    recorder.close()
    assert recorder.events_written == 3
    assert live.snapshot()["arrivals_total"] == 1


class _CountingLock:
    def __init__(self, lock):
        self.lock = lock
        self.taken = 0

    def __enter__(self):
        self.taken += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


class _CountingFile:
    def __init__(self, file):
        self.file = file
        self.writes = 0

    def write(self, data):
        self.writes += 1
        return self.file.write(data)

    def close(self):
        self.file.close()


def test_a_full_batch_is_one_lock_and_one_write(tmp_path):
    batch, live, recorder = _watched(tmp_path)
    lock = live._lock = _CountingLock(live._lock)
    file = recorder._file = _CountingFile(recorder._file)
    on_packet = StreamingVictimCollector(duration=5.0, bus=batch).on_packet
    packet = Packet(flow=FlowKey(1, 2, 3, 80), seq=0)
    for window in (1, 2, 3):
        for i in range(BATCH_EVENTS):
            on_packet(packet, window + i * 1e-3)
        assert lock.taken == window
        assert file.writes == window
        assert recorder._lines == []  # nothing held between batches
        assert live.arrivals_total == window * BATCH_EVENTS
    recorder.close()
    assert recorder.events_written == 3 * BATCH_EVENTS
