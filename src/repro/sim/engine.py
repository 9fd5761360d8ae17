"""Discrete-event scheduler: one binary heap, lazy cancellation.

A classic callback-style engine: events are ``(time, priority, seq)``-ordered
entries; running an event calls its function.  There are no coroutines —
handlers schedule follow-up events explicitly — which keeps the hot path
small and the execution order fully deterministic.  ``seq`` is unique, so
the order is strict.

The queue is a ``heapq`` heap of plain tuples (C-speed sifts) holding two
shapes of entry, told apart by their fourth item:

* ``(time, priority, seq, handle)`` — an event somebody may still cancel,
  postpone or inspect.  The :class:`Event` handle carries the callback.
* ``(time, priority, seq, None, fn, args)`` — a *fire-and-forget* event
  (:meth:`Simulator.schedule_anon`: link deliveries and wake-ups, the bulk
  of every run).  No handle exists, so none can be cancelled or go stale:
  such an entry is always live, and the run loop calls ``fn(*args)``
  without looking at anything else.

*Series events* (:meth:`Simulator.schedule_series`) are one handle that
fires at each time of a precomputed, ascending schedule.  The engine
re-inserts the handle after each firing (fresh ``seq``, assigned after the
callback returns — exactly where a self-rescheduling handler would have
allocated it), so a periodic source costs one event object per horizon
chunk instead of one per tick.

Cancelling a handle nulls its callback in place (O(1)); dead entries are
discarded lazily when they surface, or in a batch compaction when
cancelled entries outnumber live ones.  :meth:`Simulator.postpone` moves a
pending event's deadline *later* on the same lazy machinery: the handle's
``(time, seq)`` are updated in place and the queued tuple goes stale (its
``seq`` no longer matches the handle's).  A stale tuple that surfaces is
silently re-inserted at the handle's true position instead of executing.
Exactly one ``seq`` is drawn per call — the same draw a cancel+reschedule
would make — so the global tie-break order is bit-identical to the eager
formulation.

Nothing is counted per push or per pop.  The occupancy figures of
:meth:`Simulator.queue_stats` are derived, exactly, from ``len(heap)``, the
count of cancelled entries still queued, the events executed, and the
entries that left the heap any other way (see there).

The heap is the only queue because it won: an array-backed calendar queue
lost to it in pure Python and again in C at every pending-set size a
preset reaches (README, "Scheduler backends").
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable

#: Never compact below this many dead entries — rebuilding a tiny queue
#: costs more in constant factors than the dead tuples do in scan depth.
_COMPACT_MIN_DEAD = 64

_inf = math.inf
_heappush = heapq.heappush
_heappop = heapq.heappop
_heapify = heapq.heapify


class Event:
    """Handle to one scheduled callback.

    Ordering lives in the queue tuple ``(time, priority, seq)``, not here;
    ``seq`` is a monotonically increasing tie-breaker so same-time events
    fire in scheduling order.  The handle only carries the callback and
    supports O(1) :meth:`cancel`.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "_sim")

    #: Class-level default: plain events carry no series schedule.  The
    #: run loop branches on this without paying a per-instance slot.
    times = None

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., None],
        args: tuple[Any, ...],
        sim: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn: Callable[..., None] | None = fn
        self.args = args
        self._sim = sim

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called (or the event ran)."""
        return self.fn is None

    def cancel(self) -> None:
        """Mark the event as cancelled; it is skipped when popped."""
        if self.fn is None:
            return
        self.fn = None
        self.args = ()
        sim = self._sim
        if sim is not None:
            sim._on_cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self.fn is None else "pending"
        return f"Event(t={self.time:.6f}, prio={self.priority}, {state})"


class SeriesEvent(Event):
    """One handle that fires at every time of a precomputed schedule.

    ``times`` is an ascending list of absolute fire times; ``index`` is
    the position currently queued (or just fired).  After each firing the
    engine re-inserts the same handle at the next time with a fresh
    ``seq`` — allocated *after* the callback returns, exactly where a
    self-rescheduling handler's trailing ``schedule()`` call would have
    drawn it, so interleaving with events the callback schedules is
    bit-identical to the unbatched formulation.

    The callback may append to :attr:`times` (see :meth:`extend`) to
    continue the series past the current horizon chunk, and calls
    :meth:`stop` to end it (e.g. when its source is stopped).
    """

    __slots__ = ("times", "index", "_stop", "_queued")

    def __init__(self, time, priority, seq, fn, args, sim, times) -> None:
        super().__init__(time, priority, seq, fn, args, sim)
        self.times: list[float] = times
        self.index = 0
        self._stop = False
        self._queued = True

    def extend(self, more_times) -> None:
        """Append further ascending fire times to the schedule.

        Validated like :meth:`Simulator.schedule_series`: every appended
        time must be finite and no earlier than the schedule's current
        last time — this is an insertion path into the queue, and an
        unchecked NaN here would corrupt the clock exactly like the
        ``schedule_at`` bug this PR fixes.  Nothing is appended unless
        every time passes.

        The already-consumed prefix is pruned here (the current time
        stays at position 0), so a long-lived periodic source holds one
        horizon chunk, not its whole departure history.
        """
        new_times = [float(t) for t in more_times]
        times = self.times
        prev = times[-1]
        for t in new_times:
            if not (prev <= t < math.inf):
                raise ValueError(
                    "series times must be finite and ascending "
                    f"(got {t} after {prev})"
                )
            prev = t
        index = self.index
        if index:
            del times[:index]
            self.index = 0
        times.extend(new_times)

    def stop(self) -> None:
        """End the series: no further firings.

        From inside the callback this ends the series after the current
        firing; called externally while the next firing is queued, it
        cancels that firing too (without this, a quiesced source would
        still fire once more).
        """
        if self._queued:
            self.cancel()
        else:
            self._stop = True

    def cancel(self) -> None:
        """Cancel the series: drop the queued entry, or stop it mid-fire."""
        if self.fn is None:
            return
        if self._queued:
            super().cancel()
        else:
            # Being executed right now: the run loop owns the entry, so
            # there is no queue bookkeeping to fix — just end the series.
            self._stop = True


_new_event = object.__new__


class Simulator:
    """The discrete-event clock and event queue.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, my_handler, arg1, arg2)
        sim.run(until=10.0)

    Handlers receive their args verbatim; they query ``sim.now`` for the
    current time and call :meth:`schedule` / :meth:`schedule_at` to continue
    the computation.
    """

    def __init__(self) -> None:
        #: Current simulation time in seconds.  A plain attribute, read
        #: per packet all over the library; only the engine writes it.
        self.now = 0.0
        #: ``(time, priority, seq, handle)`` and handle-free
        #: ``(time, priority, seq, None, fn, args)`` entries (module docstring).
        self._heap: list[tuple] = []
        self._next_seq = itertools.count().__next__
        self._dead = 0  # cancelled entries not yet discarded
        self._peak = 0  # largest len(heap) seen ahead of a shrink
        self._gone = 0  # entries that left the heap without executing
        self._running = False
        self._stopped = False
        self.events_executed = 0

    def queue_stats(self) -> dict:
        """Occupancy counters of the event queue (for benchmarks).

        All derived, and exact at any moment — inside a handler too.  The
        heap only shrinks where ``_peak`` was folded first, so the peak is
        the larger of that and the present length.  Every entry ever
        pushed is still queued, was executed (the one whose handler is
        running is popped but not yet counted), or left some other way:
        discarded dead, re-filed stale, dropped by a compaction, or lost
        to a handler that raised.
        """
        queued = len(self._heap)
        return {
            "backend": "heap",
            "queued": queued,
            "live": queued - self._dead,
            "peak_occupancy": max(self._peak, queued),
            "dead": self._dead,
            "pushes": self.events_executed + self._running + self._gone + queued,
            "resizes": 0,
            # No handle, so no free list: always 0.  The keys stay because
            # the perf ledger reads them from every build it compares.
            "event_pool_created": 0,
            "event_pool_reused": 0,
        }

    def schedule(
        self,
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if time.__class__ is not float:  # fast path: already a float
            time = float(time)
        # One interval check covers past times AND the non-finite values
        # a naive ``time < now`` lets through (NaN compares False against
        # everything; +inf would park an unreachable event forever).
        if not (self.now <= time < _inf):
            raise _bad_time(time, self.now)
        if not callable(fn):
            raise TypeError("fn must be callable")
        seq = self._next_seq()
        # Inline construction (object.__new__ + stores) skips one Python
        # call frame.  PyEvent, not Event: the public name rebinds to the
        # compiled class when the extension loads, and this reference
        # implementation must keep building its own events either way.
        ev = _new_event(PyEvent)
        ev.time = time
        ev.priority = priority
        ev.seq = seq
        ev.fn = fn
        ev.args = args
        ev._sim = self
        _heappush(self._heap, (time, priority, seq, ev))
        return ev

    def schedule_anon(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """``schedule_at`` for fire-and-forget callbacks: returns nothing.

        With no handle to cancel, postpone or read, the event is just a
        heap entry carrying ``fn`` and ``args`` (module docstring), and
        the busiest scheduling site — link deliveries and wake-ups —
        allocates one tuple.  Validates and draws one ``seq`` exactly like
        ``schedule_at``, so the event order is bit-identical either way.
        """
        if time.__class__ is not float:
            time = float(time)
        if not (self.now <= time < _inf):
            raise _bad_time(time, self.now)
        if not callable(fn):
            raise TypeError("fn must be callable")
        _heappush(self._heap, (time, priority, self._next_seq(), None, fn, args))

    def postpone(self, ev: Event, time: float) -> Event:
        """Move a pending event's deadline, cheaply when it moves later.

        Semantically identical to ``ev.cancel()`` followed by
        ``schedule_at(time, fn, *args)`` with the same callback, priority
        and argument tuple — including drawing exactly one ``seq`` — but
        when the new deadline is no earlier than the current one the
        queued tuple is left in place and only the handle is updated
        (O(1), no queue traffic).  The stale tuple is silently re-filed
        when it surfaces.  Deadlines moving *earlier* fall back to the
        eager cancel+reschedule.  Returns the handle to keep (the same
        object on the lazy path, a fresh one on the fallback).
        """
        fn = ev.fn
        if fn is None:
            raise ValueError("cannot postpone a cancelled or fired event")
        if ev.times is not None:
            raise ValueError("cannot postpone a series event")
        if ev._sim is not self:
            raise ValueError("event belongs to a different simulator")
        if time.__class__ is not float:
            time = float(time)
        if ev.time <= time < _inf:
            ev.time = time
            ev.seq = self._next_seq()
            return ev
        args = ev.args
        priority = ev.priority
        ev.cancel()
        return self.schedule_at(time, fn, *args, priority=priority)

    def schedule_series(
        self,
        times,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> SeriesEvent:
        """Schedule ``fn(*args)`` at every time of an ascending schedule.

        ``times`` must be non-empty, ascending, finite, and start no
        earlier than ``now``.  Returns the reusable :class:`SeriesEvent`
        handle; the callback may :meth:`~SeriesEvent.extend` it with the
        next horizon chunk or :meth:`~SeriesEvent.stop` it.  Occupies one
        queue slot at a time and counts one pending event.
        """
        times = [float(t) for t in times]
        if not times:
            raise ValueError("schedule_series needs at least one time")
        prev = self.now
        for t in times:
            if not (prev <= t < _inf):
                raise ValueError(
                    "series times must be finite, ascending, and not in "
                    f"the past (got {t} after {prev})"
                )
            prev = t
        if not callable(fn):
            raise TypeError("fn must be callable")
        seq = self._next_seq()
        # PySeriesEvent: see schedule_at — never the rebound public name.
        ev = PySeriesEvent(times[0], priority, seq, fn, args, self, times)
        _heappush(self._heap, (times[0], priority, seq, ev))
        return ev

    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._stopped = True

    def peek_time(self) -> float:
        """Time of the next pending event, or ``inf`` when the queue is empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            ev = entry[3]
            if ev is None:  # handle-free: always live
                return entry[0]
            if ev.fn is None:
                self._discard_top()
            elif entry[2] != ev.seq:
                self._refile_top(ev)
            else:
                return entry[0]
        return _inf

    def pending(self) -> int:
        """Number of non-cancelled events currently queued (O(1))."""
        return len(self._heap) - self._dead

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Execute events until the queue drains, ``until`` passes, or
        ``max_events`` have run.  Returns the simulation time reached.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drained earlier, so periodic measurements line up.
        """
        if self._running:
            raise RuntimeError("simulator is already running")
        self._running = True
        self._stopped = False
        limit = _inf if until is None else until
        cap = _inf if max_events is None else max_events
        try:
            self._loop(limit, cap)
        except BaseException:
            # Only a handler raises in there: its entry was popped and will
            # never count as executed, so it left the heap some other way.
            self._gone += 1
            raise
        finally:
            self._running = False
        if until is not None and self.now < until and not self._stopped:
            self.now = float(until)
        return self.now

    # ------------------------------------------------------------ internals

    def _loop(self, limit: float, cap: float) -> None:
        """The event loop (see :meth:`run`)."""
        heap = self._heap
        heappop = _heappop
        next_seq = self._next_seq
        executed = 0
        while not self._stopped:
            queued = len(heap)
            if not queued:
                break
            # Every path below shrinks the heap by at most one before the
            # next pass, so this is the one fold the peak needs per event.
            if queued > self._peak:
                self._peak = queued
            entry = heap[0]
            ev = entry[3]
            if ev is None:
                # Handle-free (schedule_anon): nothing can have cancelled
                # or postponed it.
                time = entry[0]
                if time > limit:
                    break
                heappop(heap)
                self.now = time
                entry[4](*entry[5])
            else:
                fn = ev.fn
                if fn is None:
                    self._discard_top()
                    continue
                if entry[2] != ev.seq:
                    self._refile_top(ev)
                    continue
                time = entry[0]
                if time > limit:
                    break
                heappop(heap)
                self.now = time
                times = ev.times
                if times is None:
                    ev.fn = None  # consumed; a late cancel() must be a no-op
                    fn(*ev.args)
                else:
                    ev._queued = False
                    fn(*ev.args)
                    index = ev.index + 1
                    if not ev._stop and index < len(times):
                        ev.index = index
                        ev.time = time = times[index]
                        ev.seq = seq = next_seq()
                        ev._queued = True
                        _heappush(heap, (time, entry[1], seq, ev))
                    else:
                        ev.fn = None
            self.events_executed += 1
            executed += 1
            if executed >= cap:
                break

    def _discard_top(self) -> None:
        """Pop the cancelled entry at the top of the heap."""
        heap = self._heap
        if len(heap) > self._peak:
            self._peak = len(heap)
        _heappop(heap)
        self._dead -= 1
        self._gone += 1

    def _refile_top(self, ev: Event) -> None:
        """Move the stale (postponed) top entry to its handle's true
        deadline, without executing it."""
        heap = self._heap
        _heappop(heap)
        _heappush(heap, (ev.time, ev.priority, ev.seq, ev))
        self._gone += 1

    def _on_cancel(self, ev: Event) -> None:
        """Bookkeeping for a handle cancelled while still queued."""
        dead = self._dead = self._dead + 1
        if dead > _COMPACT_MIN_DEAD and dead > len(self._heap) - dead:
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled tuple and re-heapify (amortized O(n));
        stale (postponed) tuples are re-filed at their true deadlines."""
        heap = self._heap
        queued = len(heap)
        if queued > self._peak:
            self._peak = queued
        fresh = []
        for entry in heap:
            ev = entry[3]
            if ev is not None:
                if ev.fn is None:
                    continue
                if entry[2] != ev.seq:
                    entry = (ev.time, ev.priority, ev.seq, ev)
            fresh.append(entry)
        self._gone += queued - len(fresh)
        heap[:] = fresh
        _heapify(heap)
        self._dead = 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Simulator(now={self.now:.6f}, pending={self.pending()})"


def _bad_time(time: float, now: float) -> ValueError:
    """The error for an event time outside ``now <= time < inf``."""
    if math.isfinite(time):
        return ValueError(
            f"cannot schedule into the past (time={time}, now={now})"
        )
    return ValueError(f"event time must be finite, got {time}")


# --------------------------------------------------------------------------
# Compiled-core swap-in.  The pure-Python classes above are the reference
# implementation and stay importable as PySimulator/PyEvent/PySeriesEvent
# (the fuzz and parity tests compare both cores in one process).  When the
# C extension is present (and REPRO_NO_COMPILED is unset) the public names
# rebind to the compiled twins — same API, same bit-exact event order.

PyEvent = Event
PySeriesEvent = SeriesEvent
PySimulator = Simulator

from repro.sim._core import ENGINE_IMPL, compiled as _compiled  # noqa: E402

if _compiled is not None:
    Event = _compiled.Event
    SeriesEvent = _compiled.SeriesEvent
    Simulator = _compiled.Simulator
