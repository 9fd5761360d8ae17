"""Batched delivery must be per-event delivery, answer for answer.

Inside a run the bus hands its sinks ``BATCH_EVENTS`` events at a time
(``EventBus.emit_many``) and the two hot sinks fold the batch in one
call: ``LiveMetrics.emit_many`` under one lock, ``JsonlSink.emit_many``
with one append.  Both used to do that work per event inside ``emit``.
The replaced formulations are spelled out here as the references, and
Hypothesis drives old and new with the same streams — every kind in
``EVENT_TYPES``, clocks that run forward, jump about, or restart at 0 as
a second run under one aggregator does — cut into batches at random
points, empty batches and batches of one included.  After every batch
the aggregator's snapshot, and after ``close()`` the recording's bytes,
must be what per-event delivery of the same prefix gives; each sink on a
bus must receive the events, in the order, that ``emit`` would have
given it.
"""

from __future__ import annotations

import dataclasses
import gzip
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs import BufferedSink, EventBus, LiveMetrics
from repro.obs.events import EVENT_TYPES, WorkerHeartbeat, encode_line
from repro.obs.recorder import JsonlSink

# ---------------------------------------------------------------------------
# The references: each sink's ``emit`` as it was before batches existed.


class PerEventLiveMetrics(LiveMetrics):
    """``LiveMetrics.emit`` as it was: lock, if-chain and prune per event."""

    def emit(self, event) -> None:
        kind = event.kind
        with self._lock:
            time = event.time
            if time > self.sim_time:
                self.sim_time = time
                prune = True
            else:
                prune = time < self.sim_time - self.window
            if kind == "victim.arrival":
                self.arrivals_total += 1
                self.arrival_bytes_total += event.size
                if event.is_attack:
                    self.attack_arrivals_total += 1
                else:
                    self.legit_arrivals_total += 1
                self._arrival_window.append(
                    (event.time, event.size, event.is_attack)
                )
            elif kind == "defense.decision":
                self.decisions_total[event.action] = (
                    self.decisions_total.get(event.action, 0) + 1
                )
                key = (event.truth, event.action)
                self.decisions_by_truth[key] = (
                    self.decisions_by_truth.get(key, 0) + 1
                )
                if event.action == "drop":
                    self.drops_by_reason[event.reason] = (
                        self.drops_by_reason.get(event.reason, 0) + 1
                    )
                    self._drop_window.append(event.time)
            elif kind == "defense.verdict":
                self.verdicts_total[event.verdict] = (
                    self.verdicts_total.get(event.verdict, 0) + 1
                )
                key = (event.truth, event.verdict)
                self.verdict_confusion[key] = (
                    self.verdict_confusion.get(key, 0) + 1
                )
                self._verdict_window.append(event.time)
            elif kind == "defense.activation":
                if self.activation_time is None:
                    self.activation_time = event.time
            elif kind == "monitor.snapshot":
                self.epochs = event.epoch
            elif kind == "engine.stats":
                self.events_executed = event.events_executed
                self.pending_events = event.pending
                self.queue_backend = event.backend
            elif kind == "link.drop":
                key = (event.link, event.reason)
                self.link_drops[key] = self.link_drops.get(key, 0) + 1
            elif kind == "run.started":
                self.runs_started += 1
                engine = getattr(event, "engine", "")
                if engine:
                    self.engine_build = engine
            elif kind == "run.completed":
                self.runs_completed += 1
                self.last_run = event.to_dict()
            elif kind == "campaign.progress":
                self.campaign = event.to_dict()
            if prune:
                self._prune(self.sim_time)


class PerEventJsonlSink(JsonlSink):
    """``JsonlSink.emit`` as it was: encode, lock, append, maybe write."""

    def emit(self, event) -> None:
        line = encode_line(event)
        with self._lock:
            if self._file is None:
                return
            lines = self._lines
            lines.append(line)
            self.events_written += 1
            if len(lines) >= 512:
                try:
                    self._file.write("".join(lines).encode("utf-8"))
                finally:
                    lines.clear()


# ---------------------------------------------------------------------------
# Streams: every kind, plausible field values, three kinds of clock.

_TIMES = st.one_of(
    st.floats(min_value=0.0, max_value=6.0),
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
)
_FIELD_VALUES = {
    "float": st.floats(min_value=0.0, max_value=100.0),
    "int": st.integers(0, 1500),
    # Few distinct strings: the aggregator's dict keys must collide.
    "str": st.sampled_from(["drop", "pass", "probe", "attack", "cut", "a"]),
    "bool": st.booleans(),
    "dict": st.dictionaries(st.sampled_from(["x", "y"]), st.integers(0, 3)),
}


def _events_of(cls):
    fields = {
        field.name: _TIMES if field.name == "time"
        else _FIELD_VALUES[field.type]
        for field in dataclasses.fields(cls)
    }
    return st.builds(cls, **fields)


_EVENTS = st.one_of([_events_of(cls) for cls in EVENT_TYPES.values()])


@st.composite
def streams(draw, max_size=60):
    """(events, batches): one stream and the same stream cut up."""
    events = draw(st.lists(_EVENTS, max_size=max_size))
    clock = draw(st.sampled_from(["any", "forward", "restarts"]))
    if clock != "any" and events:
        # A run's clock only moves forward; a second run under the same
        # aggregator starts again from its own small times.
        split = draw(st.integers(0, len(events))) if clock == "restarts" else 0
        for part in (events[:split], events[split:]):
            for event, time in zip(part, sorted(e.time for e in part)):
                event.time = time
    cuts = sorted(draw(st.lists(st.integers(0, len(events)), max_size=8)))
    edges = [0, *cuts, len(events)]
    batches = [events[a:b] for a, b in zip(edges, edges[1:])]
    return events, batches


# ---------------------------------------------------------------------------


class TestLiveMetricsFoldsBatchesAsItFoldedEvents:
    @given(streams())
    @settings(max_examples=300, deadline=None)
    def test_same_snapshot_after_every_batch(self, stream):
        _, batches = stream
        live, reference = LiveMetrics(1.0), PerEventLiveMetrics(1.0)
        for batch in batches:
            live.emit_many(batch)
            for event in batch:
                reference.emit(event)
            assert live.snapshot() == reference.snapshot()
            assert live._arrival_window == reference._arrival_window
            assert live._drop_window == reference._drop_window
            assert live._verdict_window == reference._verdict_window

    @given(streams())
    @settings(max_examples=100, deadline=None)
    def test_emit_is_the_one_element_batch(self, stream):
        events, _ = stream
        live, reference = LiveMetrics(1.0), PerEventLiveMetrics(1.0)
        for event in events:
            live.emit(event)
            reference.emit(event)
            assert live.snapshot() == reference.snapshot()


def _read(path: Path) -> bytes:
    data = path.read_bytes()
    return gzip.decompress(data) if path.suffix == ".gz" else data


class TestJsonlSinkWritesBatchesAsItWroteEvents:
    @given(streams(max_size=40), st.sampled_from(["r.jsonl", "r.jsonl.gz"]),
           st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_same_count_and_closed_means_closed(
        self, stream, name, repeats
    ):
        # ``repeats`` doubles the stream past the 512-line write threshold
        # in some examples without asking Hypothesis for 600-event lists.
        events, batches = stream
        for _ in range(repeats):
            batches = batches + batches + batches + batches
            events = events + events + events + events
        with tempfile.TemporaryDirectory() as tmp:
            batched_path = Path(tmp, "batched-" + name)
            single_path = Path(tmp, "single-" + name)
            batched = JsonlSink(str(batched_path), metadata={"n": 1})
            single = PerEventJsonlSink(str(single_path), metadata={"n": 1})
            for batch in batches:
                batched.emit_many(batch)
            for event in events:
                single.emit(event)
            batched.close()
            single.close()
            assert batched.events_written == single.events_written == len(events)
            assert _read(batched_path) == _read(single_path)
            before = batched_path.read_bytes()
            batched.emit_many(events)
            batched.emit_many([])
            batched.close()
            assert batched.events_written == len(events)
            assert batched._lines == []
            assert batched_path.read_bytes() == before


_KINDS = sorted(EVENT_TYPES)
_FILTERS = st.one_of(
    st.none(), st.lists(st.sampled_from(_KINDS), min_size=1, max_size=4)
)


class TestBusDeliversBatchesAsItDeliveredEvents:
    @given(streams(max_size=40), st.lists(_FILTERS, min_size=1, max_size=4),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_each_sink_gets_what_emit_would_have_given_it(
        self, stream, filters, data
    ):
        """Kind filters, one sink subscribed twice, and a subscribe or an
        unsubscribe between two batches."""
        _, batches = stream

        def wired():
            bus = EventBus()
            sinks = [bus.subscribe(BufferedSink(), kinds) for kinds in filters]
            bus.subscribe(sinks[0], kinds=("victim.arrival", "link.drop"))
            return bus, sinks

        (batched_bus, batched), (single_bus, single) = wired(), wired()
        for batch in batches:
            batched_bus.emit_many(batch)
            for event in batch:
                single_bus.emit(event)
            for got, want in zip(batched, single):
                # Per sink: two subscriptions of one sink interleave per
                # event under emit and per batch under emit_many.
                assert Counter(map(id, got.events)) == Counter(
                    map(id, want.events)
                )
            action = data.draw(st.sampled_from(["none", "drop", "add"]))
            victim = data.draw(st.integers(0, len(batched) - 1))
            if action == "drop":
                batched_bus.unsubscribe(batched[victim])
                single_bus.unsubscribe(single[victim])
            elif action == "add":
                kinds = data.draw(_FILTERS)
                batched.append(batched_bus.subscribe(BufferedSink(), kinds))
                single.append(single_bus.subscribe(BufferedSink(), kinds))
        for got, want in zip(batched[1:], single[1:]):
            assert [id(e) for e in got.events] == [id(e) for e in want.events]

    def test_attachment_order_and_emission_order_within_a_batch(self):
        """Sink A sees the whole batch, then sink B: per-sink order and
        attachment order hold, cross-sink lockstep does not."""
        from repro.obs import CallbackSink, VictimArrival

        calls = []
        bus = EventBus()
        bus.subscribe(CallbackSink(lambda e: calls.append(("a", e.time))))
        bus.subscribe(CallbackSink(lambda e: calls.append(("b", e.time))))
        bus.emit_many([VictimArrival(1.0, 1, False), VictimArrival(2.0, 1, False)])
        assert calls == [("a", 1.0), ("a", 2.0), ("b", 1.0), ("b", 2.0)]


def test_a_second_thread_emitting_synchronously_loses_and_duplicates_nothing():
    """The batch is the simulation thread's; anything else — the worker's
    watchdog heartbeats — calls ``bus.emit`` and goes straight through,
    while the run's own events arrive in batches around it."""
    config = ExperimentConfig(
        total_flows=8, n_routers=6, duration=1.4, topology="star"
    )
    alone = EventBus()
    expected = alone.subscribe(BufferedSink())
    run_experiment(config, bus=alone)

    bus = EventBus()
    sink = bus.subscribe(BufferedSink())
    beats = 2000
    running = threading.Event()

    def heartbeats():
        running.wait(timeout=30)
        for i in range(beats):
            bus.emit(WorkerHeartbeat(0.0, "w", "cell", float(i), i))

    def go(_now):
        running.set()

    thread = threading.Thread(target=heartbeats)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread.start()
        run_experiment(config, bus=bus, slice_seconds=0.1, on_slice=go)
        thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    counts = Counter(event.kind for event in sink.events)
    assert counts.pop("worker.heartbeat") == beats
    assert counts == Counter(event.kind for event in expected.events)
    mine = [e for e in sink.events if e.kind == "worker.heartbeat"]
    assert [e.executed for e in mine] == list(range(beats))
    run = [e for e in sink.events if e.kind != "worker.heartbeat"]
    assert [e.kind for e in run] == [e.kind for e in expected.events]
