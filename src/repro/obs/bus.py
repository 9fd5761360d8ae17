"""The metric sink protocol, the fan-out event bus and the run batch.

Design constraints, in order:

1. **Zero cost when idle.**  Producers hold a bus reference and guard
   every emit site with a truthiness check (``if bus: bus.emit(...)``).
   Only :data:`NULL_BUS` and an :class:`EventBus` nobody subscribed to
   are falsy; anything that can receive an event is truthy, so the
   unobserved hot path pays one pointer test and never allocates.
2. **Deterministic fan-out.**  Every sink sees events in emission order
   and sinks are served in attachment order.  ``emit`` delivers one
   event to all sinks before it returns; inside a run the
   :class:`RunBatch` delivers ``BATCH_EVENTS`` at a time, so sink B sees
   event 1 after sink A has seen the whole batch (no cross-sink
   lockstep), a raising sink aborts the run at the next flush rather
   than at its emit, and a live sink lags the simulation by at most one
   batch or one slice.  (``tests/obs`` pins all of this.)
3. **No threading opinions.**  The bus itself is plain synchronous
   call fan-out on the calling thread; thread-safe consumers (the
   serve layer's windowed aggregators and SSE broker) do their own
   locking inside ``emit``.  The run batch belongs to the simulation
   thread: other threads publish through ``EventBus.emit``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol, runtime_checkable

from repro.obs.events import MetricEvent

#: Events a run's batch holds before one delivery, and so the lines the
#: recorder writes at once: a gzip write per event costs more than
#: encoding it, and sink code run between two simulation events runs
#: cold; a few hundred events (~50 KiB of lines) amortise both away.
BATCH_EVENTS = 512


@runtime_checkable
class MetricSink(Protocol):
    """Anything that can consume :class:`MetricEvent` objects.

    ``emit`` is called once per event, on the thread that produced it
    (the simulation thread during a run).  ``close`` is called once when
    the producing context ends; sinks that buffer or hold sockets flush
    there.  Sinks must never raise from ``emit`` — a failing sink would
    abort the simulation it observes.  A sink that also defines
    ``emit_many(events)`` is handed a run's batches whole.
    """

    def emit(self, event: MetricEvent) -> None: ...

    def close(self) -> None: ...


class NullSink:
    """The do-nothing sink; falsy, so producers skip event construction.

    The default everywhere a sink parameter exists: attaching it is
    indistinguishable (bit-exactly) from attaching nothing.
    """

    def __bool__(self) -> bool:
        return False

    def emit(self, event: MetricEvent) -> None:
        """Drop the event."""

    def close(self) -> None:
        """Nothing to flush."""


#: Shared do-nothing instance (stateless, safe to share).
NULL_SINK = NullSink()


class BufferedSink:
    """Accumulate events in memory, optionally bounded.

    The in-process default for tests and for post-run inspection.  With
    ``max_events`` set, the **oldest** events are discarded once the
    bound is hit (live observation cares about the recent past), and
    ``dropped`` counts the discards so consumers can tell truncation
    from a quiet run.
    """

    def __init__(self, max_events: int | None = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.max_events = max_events
        self.events: list[MetricEvent] = []
        self.dropped = 0

    def emit(self, event: MetricEvent) -> None:
        self.events.append(event)
        if self.max_events is not None and len(self.events) > self.max_events:
            overflow = len(self.events) - self.max_events
            del self.events[:overflow]
            self.dropped += overflow

    def close(self) -> None:
        """Nothing to flush; events stay readable."""

    def of_kind(self, kind: str) -> list[MetricEvent]:
        """The buffered events of one kind, in emission order."""
        return [event for event in self.events if event.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        # Without this ``__len__`` makes an empty buffer falsy, producers
        # skip the first event, and it stays empty for ever.
        return True


class CallbackSink:
    """Adapt a plain callable into a sink (e.g. ``print`` wrappers)."""

    def __init__(self, fn: Callable[[MetricEvent], None]) -> None:
        if not callable(fn):
            raise TypeError("fn must be callable")
        self._fn = fn

    def emit(self, event: MetricEvent) -> None:
        self._fn(event)

    def close(self) -> None:
        """Callbacks own no resources."""


class _Subscription:
    """One sink plus its kind filter (None = everything)."""

    __slots__ = ("sink", "kinds")

    def __init__(self, sink: MetricSink, kinds: frozenset[str] | None) -> None:
        self.sink = sink
        self.kinds = kinds


class EventBus:
    """Synchronous fan-out of metric events to subscribed sinks.

    Falsy while no sink is subscribed — producers use that to skip
    event construction entirely.  ``emit`` forwards to subscribers in
    attachment order; a ``kinds`` filter restricts a subscriber to a
    subset of event kinds without burdening the others.
    """

    def __init__(self) -> None:
        self._subs: list[_Subscription] = []

    def __bool__(self) -> bool:
        return bool(self._subs)

    def subscribe(
        self, sink: MetricSink, kinds: Iterable[str] | None = None
    ) -> MetricSink:
        """Attach ``sink`` (optionally only for the given event kinds).

        Returns the sink, so ``bus.subscribe(BufferedSink())`` reads
        naturally.  Subscribing the same sink twice delivers twice.
        """
        kindset = None if kinds is None else frozenset(kinds)
        if kindset is not None and not kindset:
            raise ValueError("kinds must be None or non-empty")
        self._subs.append(_Subscription(sink, kindset))
        return sink

    def unsubscribe(self, sink: MetricSink) -> None:
        """Detach every subscription of ``sink`` (missing is a no-op)."""
        self._subs = [sub for sub in self._subs if sub.sink is not sink]

    def emit(self, event: MetricEvent) -> None:
        """Deliver one event to every matching subscriber, in order."""
        kind = event.kind
        for sub in self._subs:
            if sub.kinds is None or kind in sub.kinds:
                sub.sink.emit(event)

    def emit_many(self, events: list[MetricEvent]) -> None:
        """Deliver a batch: each matching subscriber, in attachment
        order, sees its share of ``events`` in emission order."""
        for sub in self._subs:
            kinds = sub.kinds
            _deliver(sub.sink, events if kinds is None else [
                event for event in events if event.kind in kinds
            ])

    def close(self) -> None:
        """Close every subscriber (each at most once, attachment order)."""
        seen: list[int] = []
        for sub in self._subs:
            if id(sub.sink) not in seen:
                seen.append(id(sub.sink))
                sub.sink.close()


def _deliver(sink: MetricSink, events: list[MetricEvent]) -> None:
    """Hand ``events`` to ``sink`` whole if it folds batches, else singly."""
    emit_many = getattr(sink, "emit_many", None)
    if emit_many is not None:
        emit_many(events)
    else:
        emit = sink.emit
        for event in events:
            emit(event)


class RunBatch:
    """What a run's producers hold in place of the caller's bus or sink.

    ``emit`` only appends; every ``BATCH_EVENTS`` events, and whenever
    the runner calls :meth:`flush`, the pending events go to the wrapped
    target in one delivery.  Always truthy, and by identity rather than
    through ``__bool__``, so a producer's ``if bus:`` costs no Python
    call.  Touched by the simulation thread only.
    """

    __slots__ = ("_target", "_pending")

    def __init__(self, target: MetricSink) -> None:
        self._target = target
        self._pending: list[MetricEvent] = []

    def emit(self, event: MetricEvent) -> None:
        pending = self._pending
        pending.append(event)
        if len(pending) >= BATCH_EVENTS:
            self.flush()

    def flush(self) -> None:
        """Deliver what is pending (a delivery that raises loses it)."""
        pending = self._pending
        if pending:
            self._pending = []
            _deliver(self._target, pending)

    def close(self) -> None:
        """Flush; the wrapped target stays open, it is the caller's."""
        self.flush()


#: Shared falsy bus stand-in for "no observability attached".
NULL_BUS = NULL_SINK
