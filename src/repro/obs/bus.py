"""The metric sink protocol and the fan-out event bus.

Design constraints, in order:

1. **Zero cost when idle.**  Producers hold a bus reference and guard
   every emit site with a truthiness check (``if bus: bus.emit(...)``).
   :class:`EventBus` is falsy while it has no subscribers and
   :data:`NULL_BUS` is always falsy, so the batch hot path pays one
   pointer test and never allocates an event.
2. **Deterministic fan-out.**  Subscribers receive events strictly in
   attachment order; a sink never observes an event out of order with
   respect to another sink.  (The ordering test in ``tests/obs``
   pins this.)
3. **No threading opinions.**  The bus itself is plain synchronous
   call fan-out on the simulation thread; thread-safe consumers (the
   serve layer's windowed aggregators and SSE broker) do their own
   locking inside ``emit``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol, runtime_checkable

from repro.obs.events import MetricEvent


@runtime_checkable
class MetricSink(Protocol):
    """Anything that can consume :class:`MetricEvent` objects.

    ``emit`` is called once per event, on the thread that produced it
    (the simulation thread during a run).  ``close`` is called once when
    the producing context ends; sinks that buffer or hold sockets flush
    there.  Sinks must never raise from ``emit`` — a failing sink would
    abort the simulation it observes.
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

    def close(self) -> None:
        """Close every subscriber (each at most once, attachment order)."""
        seen: list[int] = []
        for sub in self._subs:
            if id(sub.sink) not in seen:
                seen.append(id(sub.sink))
                sub.sink.close()


#: Shared falsy bus stand-in for "no observability attached".
NULL_BUS = NULL_SINK
