"""The sink protocol and fan-out bus: ordering, filtering, zero-cost."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs import (
    NULL_BUS,
    NULL_SINK,
    BufferedSink,
    CallbackSink,
    EventBus,
    MetricSink,
    NullSink,
    VictimArrival,
)
from repro.obs.bus import BATCH_EVENTS, RunBatch


def _arrival(t: float = 0.0) -> VictimArrival:
    return VictimArrival(time=t, size=1000, is_attack=False)


class TestNullSink:
    def test_falsy_so_producers_skip_event_construction(self):
        assert not NullSink()
        assert not NULL_SINK
        assert not NULL_BUS

    def test_satisfies_the_sink_protocol(self):
        assert isinstance(NULL_SINK, MetricSink)

    def test_emit_and_close_are_inert(self):
        sink = NullSink()
        sink.emit(_arrival())
        sink.close()


class TestEventBus:
    def test_falsy_until_first_subscriber(self):
        bus = EventBus()
        assert not bus
        sink = bus.subscribe(BufferedSink())
        assert bus
        bus.unsubscribe(sink)
        assert not bus

    def test_fan_out_preserves_attachment_order(self):
        """Sinks see each event strictly in the order they subscribed —
        the determinism contract serve's SSE broker relies on."""
        calls = []
        bus = EventBus()
        bus.subscribe(CallbackSink(lambda e: calls.append(("first", e.time))))
        bus.subscribe(CallbackSink(lambda e: calls.append(("second", e.time))))
        bus.emit(_arrival(1.0))
        bus.emit(_arrival(2.0))
        assert calls == [
            ("first", 1.0), ("second", 1.0),
            ("first", 2.0), ("second", 2.0),
        ]

    def test_kinds_filter_restricts_delivery(self):
        bus = EventBus()
        everything = bus.subscribe(BufferedSink())
        arrivals_only = bus.subscribe(
            BufferedSink(), kinds=("victim.arrival",)
        )
        bus.emit(_arrival())
        from repro.obs import Verdict

        bus.emit(Verdict(time=1.0, label=3, verdict="cut", truth="attack"))
        assert [e.kind for e in everything.events] == [
            "victim.arrival", "defense.verdict",
        ]
        assert [e.kind for e in arrivals_only.events] == ["victim.arrival"]

    def test_subscriptions_after_a_kind_was_seen_take_effect(self):
        """A subscribe or unsubscribe after a kind was first delivered
        takes effect on the next event of that kind."""
        calls = []

        def tag(name):
            return CallbackSink(lambda e: calls.append((name, e.kind)))

        from repro.obs import Verdict

        verdict = Verdict(time=1.0, label=3, verdict="cut", truth="attack")
        bus = EventBus()
        first = bus.subscribe(tag("first"))
        bus.emit(_arrival())
        bus.emit(verdict)
        filtered = bus.subscribe(tag("filtered"), kinds=("victim.arrival",))
        bus.subscribe(tag("last"))
        bus.emit(_arrival())
        bus.emit(verdict)
        bus.unsubscribe(first)
        bus.emit(_arrival())
        bus.unsubscribe(filtered)
        bus.emit(_arrival())
        assert calls == [
            ("first", "victim.arrival"), ("first", "defense.verdict"),
            ("first", "victim.arrival"), ("filtered", "victim.arrival"),
            ("last", "victim.arrival"),
            ("first", "defense.verdict"), ("last", "defense.verdict"),
            ("filtered", "victim.arrival"), ("last", "victim.arrival"),
            ("last", "victim.arrival"),
        ]

    def test_same_sink_subscribed_twice_delivers_twice(self):
        bus = EventBus()
        sink = bus.subscribe(BufferedSink())
        bus.subscribe(sink, kinds=("victim.arrival",))
        bus.emit(_arrival())
        assert len(sink) == 2

    def test_empty_kinds_rejected(self):
        with pytest.raises(ValueError):
            EventBus().subscribe(BufferedSink(), kinds=())

    def test_unsubscribe_missing_sink_is_noop(self):
        EventBus().unsubscribe(BufferedSink())

    def test_close_reaches_each_sink_once(self):
        closes = []

        class Closing(BufferedSink):
            def __init__(self, name):
                super().__init__()
                self.name = name

            def close(self):
                closes.append(self.name)

        bus = EventBus()
        a = bus.subscribe(Closing("a"))
        bus.subscribe(Closing("b"))
        bus.subscribe(a, kinds=("victim.arrival",))  # second subscription
        bus.close()
        assert closes == ["a", "b"]


class TestBufferedSink:
    def test_unbounded_by_default(self):
        sink = BufferedSink()
        for i in range(100):
            sink.emit(_arrival(float(i)))
        assert len(sink) == 100
        assert sink.dropped == 0

    def test_bound_discards_oldest_and_counts(self):
        sink = BufferedSink(max_events=3)
        for i in range(5):
            sink.emit(_arrival(float(i)))
        assert [e.time for e in sink.events] == [2.0, 3.0, 4.0]
        assert sink.dropped == 2

    def test_of_kind_preserves_emission_order(self):
        sink = BufferedSink()
        sink.emit(_arrival(1.0))
        sink.emit(_arrival(2.0))
        assert [e.time for e in sink.of_kind("victim.arrival")] == [1.0, 2.0]
        assert sink.of_kind("defense.verdict") == []

    def test_max_events_must_be_positive(self):
        with pytest.raises(ValueError):
            BufferedSink(max_events=0)

    def test_an_empty_buffer_passed_as_the_bus_observes_the_run(self):
        """``__len__`` alone made an empty buffer falsy: every producer's
        ``if bus:`` skipped it, and it stayed empty for ever."""
        sink = BufferedSink()
        assert sink and len(sink) == 0
        run_experiment(
            ExperimentConfig(
                total_flows=8, n_routers=6, duration=1.4, topology="star"
            ),
            bus=sink,
        )
        assert sink.events[0].kind == "run.started"
        assert sink.events[-1].kind == "run.completed"
        assert sink.of_kind("victim.arrival")


class TestRunBatch:
    def test_holds_events_until_full_then_delivers_them_in_order(self):
        sink = BufferedSink()
        batch = RunBatch(sink)
        for i in range(BATCH_EVENTS - 1):
            batch.emit(_arrival(float(i)))
        assert len(sink) == 0
        batch.emit(_arrival(float(BATCH_EVENTS - 1)))
        assert [e.time for e in sink.events] == [
            float(i) for i in range(BATCH_EVENTS)
        ]
        batch.emit(_arrival(-1.0))
        assert len(sink) == BATCH_EVENTS
        batch.close()
        assert sink.events[-1].time == -1.0
        batch.flush()  # nothing pending: delivers nothing twice
        assert len(sink) == BATCH_EVENTS + 1

    def test_truthy_by_identity_whatever_it_wraps(self):
        """Producers' ``if bus:`` on a batch must not call into Python:
        no ``__bool__``, no ``__len__`` — and the runner, not the batch,
        decides whether the wrapped bus is worth wrapping."""
        assert RunBatch(EventBus())
        assert not hasattr(RunBatch, "__bool__")
        assert not hasattr(RunBatch, "__len__")
        assert not hasattr(RunBatch(NULL_SINK), "__dict__")  # slotted

    def test_is_a_sink(self):
        assert isinstance(RunBatch(NULL_SINK), MetricSink)

    def test_a_delivery_that_raises_loses_its_batch_not_the_next(self):
        seen = []

        def fussy(event):
            if event.time < 0:
                raise RuntimeError("no")
            seen.append(event.time)

        batch = RunBatch(CallbackSink(fussy))
        batch.emit(_arrival(1.0))
        batch.emit(_arrival(-1.0))
        batch.emit(_arrival(2.0))
        with pytest.raises(RuntimeError):
            batch.flush()
        batch.emit(_arrival(3.0))
        batch.flush()
        assert seen == [1.0, 3.0]


class TestEventPayloads:
    def test_to_dict_carries_kind_and_every_field(self):
        event = VictimArrival(time=0.5, size=1500, is_attack=True)
        assert event.to_dict() == {
            "kind": "victim.arrival",
            "time": 0.5,
            "size": 1500,
            "is_attack": True,
        }

    def test_callback_sink_rejects_non_callable(self):
        with pytest.raises(TypeError):
            CallbackSink("not a function")
