"""Discrete-event scheduler with selectable queue backends.

A classic callback-style engine: events are ``(time, priority, seq)``-ordered
entries; running an event calls its function.  There are no coroutines —
handlers schedule follow-up events explicitly — which keeps the hot path
small and the execution order fully deterministic.

Two queue backends implement the identical total order (``seq`` is unique,
so the order is strict and both backends execute the exact same sequence):

* ``"heap"`` — a binary heap of plain ``(time, priority, seq, handle)``
  tuples (C-speed sifts), as shipped in PR 1.
* ``"calendar"`` — an array-backed calendar queue (Brown 1988): a bucketed
  timing wheel whose bucket width re-tunes itself to the observed event
  spacing, with a far-future overflow heap for events beyond the current
  wheel window.  Inserts and pops touch one small bucket instead of
  sifting a ``log n`` path, so cost stays flat as the pending set grows.

Both support *series events* (:meth:`Simulator.schedule_series`): one
handle that fires at each time of a precomputed, ascending schedule.  The
engine re-inserts the handle after each firing (fresh ``seq``, assigned
after the callback returns — exactly where a self-rescheduling handler
would have allocated it), so a periodic source costs one event object per
horizon chunk instead of one per tick.

Cancelling a handle nulls its callback in place (O(1)); dead entries are
discarded lazily when they surface, or in a batch compaction when
cancelled entries outnumber live ones.

Two further churn-reduction paths ride on the same lazy machinery:

* :meth:`Simulator.postpone` moves a pending event's deadline *later*
  without touching the queue: the handle's ``(time, seq)`` are updated in
  place and the queued tuple goes stale (its ``seq`` no longer matches
  the handle's).  A stale tuple that surfaces is silently re-inserted at
  the handle's true position instead of executing.  Exactly one ``seq``
  is drawn per call — the same draw a cancel+reschedule would make — so
  the global tie-break order is bit-identical to the eager formulation.
* :meth:`Simulator.schedule_anon` is ``schedule_at`` for fire-and-forget
  callbacks whose handle the caller discards (link drains/deliveries):
  the handle comes from a per-simulator free list and is recycled the
  moment it fires, so the busiest allocation site stops allocating.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable

from repro.perf import FLAGS

#: Never compact below this many dead entries — rebuilding a tiny queue
#: costs more in constant factors than the dead tuples do in scan depth.
_COMPACT_MIN_DEAD = 64


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


#: ``times`` sentinel marking a pooled fire-and-forget event (see
#: :meth:`Simulator.schedule_anon`).  Any non-None, non-list value the run
#: loops can test with ``is`` works; the empty tuple costs nothing.
_POOLED: tuple = ()

#: Free-list cap per simulator; beyond this, fired handles are dropped.
_EV_POOL_MAX = 4096


class _PooledEvent(Event):
    """A fire-and-forget :class:`Event` recycled through the simulator's
    free list after it fires.  Never hand its handle to code that might
    retain or cancel it past the firing — the object will be reused."""

    __slots__ = ()

    times = _POOLED


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


class _HeapQueue:
    """PR 1's tuple heap behind the shared backend interface."""

    __slots__ = ("_heap", "dead", "size", "peak", "pushes")

    kind = "heap"

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self.dead = 0  # cancelled entries not yet discarded
        self.size = 0  # queued entries, live + dead
        self.peak = 0
        self.pushes = 0  # total insertions (churn metric for benchmarks)

    def push(self, entry: tuple[float, int, int, Event]) -> None:
        heapq.heappush(self._heap, entry)
        self.pushes += 1
        size = self.size + 1
        self.size = size
        if size > self.peak:
            self.peak = size

    def first_time(self) -> float:
        """Time of the earliest live entry, or ``inf`` when empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            ev = entry[3]
            if ev.fn is None:
                heapq.heappop(heap)
                self.dead -= 1
                self.size -= 1
            elif entry[2] != ev.seq:
                # Stale (postponed) tuple: re-file at the true deadline.
                heapq.heappop(heap)
                heapq.heappush(heap, (ev.time, ev.priority, ev.seq, ev))
                self.pushes += 1
            else:
                return entry[0]
        return math.inf

    def note_cancel(self, live: int) -> None:
        self.dead += 1
        if self.dead > _COMPACT_MIN_DEAD and self.dead > live:
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled tuple and re-heapify (amortized O(n));
        stale (postponed) tuples are re-filed at their true deadlines."""
        heap = self._heap
        fresh = []
        for entry in heap:
            ev = entry[3]
            if ev.fn is None:
                continue
            if entry[2] != ev.seq:
                entry = (ev.time, ev.priority, ev.seq, ev)
            fresh.append(entry)
        heap[:] = fresh
        heapq.heapify(heap)
        self.dead = 0
        self.size = len(heap)

    def run_loop(self, sim: "Simulator", limit: float, cap: float) -> None:
        """The event loop, specialized for the heap (see Simulator.run).

        Mirrors :meth:`_CalendarQueue.run_loop` — the dequeue mechanics
        are inlined per backend so the per-event cost carries no method
        dispatch; the execute/series semantics must stay in lockstep.
        """
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        next_seq = sim._next_seq
        ev_pool = sim._ev_pool
        executed = 0
        while not sim._stopped:
            if not heap:
                break
            entry = heap[0]
            ev = entry[3]
            fn = ev.fn
            if fn is None:
                heappop(heap)
                self.dead -= 1
                self.size -= 1
                continue
            if entry[2] != ev.seq:
                # Stale (postponed) tuple: re-file at the true deadline
                # without executing — the live/size bookkeeping nets zero.
                heappop(heap)
                heappush(heap, (ev.time, ev.priority, ev.seq, ev))
                self.pushes += 1
                continue
            time = entry[0]
            if time > limit:
                break
            heappop(heap)
            self.size -= 1
            sim._live -= 1
            sim.now = time
            times = ev.times
            if times is None:
                ev.fn = None  # consumed; a late cancel() must be a no-op
                fn(*ev.args)
            elif times is _POOLED:
                ev.fn = None
                fn(*ev.args)
                ev.args = ()
                if len(ev_pool) < _EV_POOL_MAX:
                    ev_pool.append(ev)
            else:
                ev._queued = False
                fn(*ev.args)
                if not ev._stop:
                    index = ev.index + 1
                    if index < len(times):
                        ev.index = index
                        t2 = times[index]
                        seq = next_seq()
                        ev.time = t2
                        ev.seq = seq
                        ev._queued = True
                        heappush(heap, (t2, entry[1], seq, ev))
                        self.pushes += 1
                        size = self.size + 1
                        self.size = size
                        if size > self.peak:
                            self.peak = size
                        sim._live += 1
                    else:
                        ev.fn = None
                else:
                    ev.fn = None
            sim.events_executed += 1
            executed += 1
            if executed >= cap:
                break


class _CalendarQueue:
    """Array-backed calendar queue with an overflow heap.

    The wheel maps the window ``[start, start + nbuckets * width)`` onto
    ``nbuckets`` buckets; an entry's bucket is a float multiply and a
    push.  Each bucket is itself a *small heap*, so the bucket minimum is
    ``bucket[0]`` (O(1) peek) and insert/remove are C-speed sifts over a
    handful of entries instead of ``log n`` of the whole pending set.
    Entries beyond the window wait in a far-future binary heap and
    migrate in when the wheel empties and re-anchors at their epoch.
    Popping scans forward from a monotone hint to the first non-empty
    bucket.

    The bucket width re-tunes on resize (triggered when the live count
    outgrows or undershoots the bucket count) to a small multiple of the
    median inter-event gap near the head, so both dense packet bursts and
    sparse timer-only phases keep O(1)-ish bucket occupancy — including
    heavily skewed schedules where a mean would be dragged by outliers.
    """

    __slots__ = (
        "_buckets", "_n", "_width", "_inv_width", "_start", "_end", "_hint",
        "_wheel_count", "_over", "_grow_at", "_shrink_at", "resizes",
        "dead", "size", "peak", "pushes",
    )

    kind = "calendar"

    _MIN_BUCKETS = 64
    _MAX_BUCKETS = 1 << 15
    _MIN_WIDTH = 1e-9
    _MAX_WIDTH = 1e6

    def __init__(self) -> None:
        self._n = 256
        self._width = 1.0 / 1024.0
        self._inv_width = 1024.0
        self._buckets: list[list[tuple[float, int, int, Event]]] = [
            [] for _ in range(self._n)
        ]
        self._start: float | None = None  # wheel not anchored yet
        self._end = 0.0
        self._hint = 0  # no non-empty bucket below this index
        self._wheel_count = 0  # entries (live + dead) in the wheel
        self._over: list[tuple[float, int, int, Event]] = []  # far future
        self._grow_at = 2 * self._n
        self._shrink_at = self._n // 8
        self.resizes = 0
        self.dead = 0
        self.size = 0
        self.peak = 0
        self.pushes = 0  # total insertions (churn metric for benchmarks)

    # ------------------------------------------------------------- insert

    def push(self, entry: tuple[float, int, int, Event]) -> None:
        self.pushes += 1
        t = entry[0]
        start = self._start
        if start is None:
            self._anchor(t)
            start = self._start
        if t < self._end:
            # Multiply instead of divide; any monotone time->bucket map
            # preserves ordering, so the cheaper rounding is safe.
            i = int((t - start) * self._inv_width)
            # Clamp: times below the anchor (possible after the wheel
            # advanced past them) collapse into bucket 0, which is always
            # scanned first; float edge cases clamp into the last bucket.
            if i < 0:
                i = 0
            elif i >= self._n:
                i = self._n - 1
            heapq.heappush(self._buckets[i], entry)
            self._wheel_count += 1
            if i < self._hint:
                self._hint = i
        else:
            heapq.heappush(self._over, entry)
        size = self.size + 1
        self.size = size
        if size > self.peak:
            self.peak = size
        if size - self.dead > self._grow_at and self._n < self._MAX_BUCKETS:
            self._resize(self._n * 2)

    # --------------------------------------------------------------- pop

    def pop_next(self, limit: float):
        """Pop and return the earliest live entry with ``time <= limit``."""
        heappop = heapq.heappop
        while True:
            if self._wheel_count == 0:
                over = self._over
                while over and over[0][3].fn is None:
                    heappop(over)
                    self.dead -= 1
                    self.size -= 1
                if not over:
                    return None
                # Jump the wheel window to the overflow epoch.
                self._anchor(over[0][0])
                self._migrate_overflow()
                continue
            buckets = self._buckets
            n = self._n
            b = self._hint
            stale = False
            while b < n:
                bucket = buckets[b]
                if not bucket:
                    b += 1
                    continue
                best = bucket[0]
                ev = best[3]
                if ev.fn is None:  # purge dead heads lazily
                    heappop(bucket)
                    self._wheel_count -= 1
                    self.size -= 1
                    self.dead -= 1
                    continue
                if best[2] != ev.seq:
                    # Stale (postponed) tuple: re-file at the true
                    # deadline.  push() may resize and invalidate every
                    # local, so restart the scan from the top.
                    self._hint = b
                    heappop(bucket)
                    self._wheel_count -= 1
                    self.size -= 1
                    self.push((ev.time, ev.priority, ev.seq, ev))
                    stale = True
                    break
                self._hint = b
                if best[0] > limit:
                    return None
                heappop(bucket)
                self._wheel_count -= 1
                size = self.size - 1
                self.size = size
                if size - self.dead < self._shrink_at and self._n > self._MIN_BUCKETS:
                    self._resize(self._n // 2)
                return best
            if stale:
                continue
            # Scanned the whole window without finding an entry: the
            # wheel is empty — retry via the overflow/anchor path.
            self._hint = n
            if self._wheel_count:  # defensive recount; never expected
                self._wheel_count = sum(len(bk) for bk in buckets)
                if self._wheel_count:
                    self._hint = 0
            continue

    def first_time(self) -> float:
        """Time of the earliest live entry, or ``inf`` when empty."""
        entry = self.pop_next(-math.inf)  # never pops (limit below any time)
        if entry is not None:  # pragma: no cover - defensive
            self.push(entry)
            return entry[0]
        # pop_next(-inf) returns None either on empty or via the
        # limit-check with self._hint left at the min bucket.
        if self._wheel_count:
            bucket = self._buckets[self._hint]
            if bucket:
                return bucket[0][0]
        return self._over[0][0] if self._over else math.inf

    # --------------------------------------------------------- cancel/gc

    def note_cancel(self, live: int) -> None:
        self.dead += 1
        if self.dead > _COMPACT_MIN_DEAD and self.dead > live:
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry and rebuild (amortized O(n))."""
        self._resize(self._n)

    def run_loop(self, sim: "Simulator", limit: float, cap: float) -> None:
        """The event loop, specialized for the wheel (see Simulator.run).

        Mirrors :meth:`_HeapQueue.run_loop`; the execute/series semantics
        must stay in lockstep — only the dequeue mechanics differ.
        """
        heappop = heapq.heappop
        next_seq = sim._next_seq
        ev_pool = sim._ev_pool
        executed = 0
        while not sim._stopped:
            # -- dequeue: earliest live entry, or advance/stop ----------
            if self._wheel_count == 0:
                over = self._over
                while over and over[0][3].fn is None:
                    heappop(over)
                    self.dead -= 1
                    self.size -= 1
                if not over:
                    break
                self._anchor(over[0][0])
                self._migrate_overflow()
                continue
            buckets = self._buckets
            n = self._n
            b = self._hint
            entry = None
            stale = False
            while b < n:
                bucket = buckets[b]
                if not bucket:
                    b += 1
                    continue
                best = bucket[0]
                ev = best[3]
                if ev.fn is None:  # purge dead heads lazily
                    heappop(bucket)
                    self._wheel_count -= 1
                    self.size -= 1
                    self.dead -= 1
                    continue
                if best[2] != ev.seq:
                    # Stale (postponed) tuple: re-file at the true
                    # deadline; push() may resize, so restart the scan.
                    self._hint = b
                    heappop(bucket)
                    self._wheel_count -= 1
                    self.size -= 1
                    self.push((ev.time, ev.priority, ev.seq, ev))
                    stale = True
                    break
                self._hint = b
                if best[0] > limit:
                    return
                heappop(bucket)
                self._wheel_count -= 1
                size = self.size - 1
                self.size = size
                if size - self.dead < self._shrink_at and n > self._MIN_BUCKETS:
                    self._resize(n // 2)
                entry = best
                break
            if stale:
                continue
            if entry is None:
                # Scanned the whole window: wheel is (effectively) empty.
                self._hint = n
                if self._wheel_count:  # defensive recount; never expected
                    self._wheel_count = sum(len(bk) for bk in buckets)
                    if self._wheel_count:
                        self._hint = 0
                continue
            # -- execute (kept in lockstep with the heap loop) ----------
            ev = entry[3]
            fn = ev.fn
            sim._live -= 1
            sim.now = entry[0]
            times = ev.times
            if times is None:
                ev.fn = None  # consumed; a late cancel() must be a no-op
                fn(*ev.args)
            elif times is _POOLED:
                ev.fn = None
                fn(*ev.args)
                ev.args = ()
                if len(ev_pool) < _EV_POOL_MAX:
                    ev_pool.append(ev)
            else:
                ev._queued = False
                fn(*ev.args)
                if not ev._stop:
                    index = ev.index + 1
                    if index < len(times):
                        ev.index = index
                        t2 = times[index]
                        seq = next_seq()
                        ev.time = t2
                        ev.seq = seq
                        ev._queued = True
                        self.push((t2, entry[1], seq, ev))
                        sim._live += 1
                    else:
                        ev.fn = None
                else:
                    ev.fn = None
            sim.events_executed += 1
            executed += 1
            if executed >= cap:
                break

    # ----------------------------------------------------------- internals

    def _anchor(self, t: float) -> None:
        """Re-anchor the (empty) wheel window so that ``t`` lands in it."""
        width = self._width
        self._start = math.floor(t / width) * width
        self._end = self._start + self._n * width
        self._hint = 0

    def _migrate_overflow(self) -> None:
        """Pull overflow entries that now fall inside the wheel window."""
        over = self._over
        end = self._end
        start = self._start
        inv_width = self._inv_width
        n = self._n
        buckets = self._buckets
        while over and over[0][0] < end:
            entry = heapq.heappop(over)
            if entry[3].fn is None:
                self.dead -= 1
                self.size -= 1
                continue
            i = int((entry[0] - start) * inv_width)
            if i < 0:
                i = 0
            elif i >= n:
                i = n - 1
            # Ascending heap-pops appended to an empty bucket keep the
            # bucket-heap invariant (a sorted list is a valid heap).
            buckets[i].append(entry)
            self._wheel_count += 1

    def _live_entries(self) -> list[tuple[float, int, int, Event]]:
        entries = [
            e for bucket in self._buckets for e in bucket if e[3].fn is not None
        ]
        entries.extend(e for e in self._over if e[3].fn is not None)
        # Re-file stale (postponed) tuples at their true deadlines.
        for i, e in enumerate(entries):
            ev = e[3]
            if e[2] != ev.seq:
                entries[i] = (ev.time, ev.priority, ev.seq, ev)
        return entries

    def _resize(self, n: int) -> None:
        """Rebuild with ``n`` buckets and a re-tuned width (purges dead)."""
        entries = self._live_entries()
        self.resizes += 1
        self._n = n
        self._grow_at = 2 * n
        self._shrink_at = n // 8
        self._width = self._tune_width(entries)
        self._inv_width = 1.0 / self._width
        self._buckets = [[] for _ in range(n)]
        self._over = []
        self._wheel_count = 0
        self.dead = 0
        self.size = 0
        peak = self.peak
        pushes = self.pushes
        if entries:
            self._anchor(min(e[0] for e in entries))
        else:
            self._start = None
        for entry in entries:
            self.push(entry)
        self.peak = peak
        self.pushes = pushes  # re-filing existing entries is not churn

    def _tune_width(self, entries) -> float:
        """Bucket width ~ 2x the median inter-event gap near the head.

        The median (over the soonest ~128 events, zero gaps dropped) is
        robust to the two ways schedules skew: bursts of same-time events
        would drag an average to zero, and a handful of far-future timers
        (RTO backoffs) would stretch it to seconds.
        """
        if len(entries) < 2:
            return self._width
        times = sorted(e[0] for e in entries)[:128]
        gaps = sorted(
            b - a for a, b in zip(times, times[1:]) if b > a
        )
        if not gaps:
            return self._width
        width = 2.0 * gaps[len(gaps) // 2]
        return min(self._MAX_WIDTH, max(self._MIN_WIDTH, width))


_BACKENDS = {"heap": _HeapQueue, "calendar": _CalendarQueue}

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

    ``queue`` selects the backend: ``"heap"`` (the default — C-compiled
    heapq wins at the pending-set sizes these scenarios reach) or
    ``"calendar"`` (see module docstring).  Both execute the identical
    event sequence; the golden-master suite pins this bit-exactly.
    """

    def __init__(self, queue: str | None = None) -> None:
        if queue is None:
            queue = FLAGS.queue
        try:
            backend = _BACKENDS[queue]
        except KeyError:
            raise ValueError(
                f"unknown queue backend {queue!r}; expected one of "
                f"{sorted(_BACKENDS)}"
            ) from None
        #: Current simulation time in seconds.  A plain attribute, read
        #: per packet all over the library; only the engine writes it.
        self.now = 0.0
        self._q = backend()
        self._next_seq = itertools.count().__next__
        self._live = 0  # non-cancelled entries still queued
        self._running = False
        self._stopped = False
        self.events_executed = 0
        self._ev_pool: list[Event] = []  # recycled fire-and-forget handles
        self._ev_created = 0
        self._ev_reused = 0

    @property
    def queue_kind(self) -> str:
        """Which queue backend this simulator runs on."""
        return self._q.kind

    def queue_stats(self) -> dict:
        """Occupancy counters of the queue backend (for benchmarks)."""
        q = self._q
        return {
            "backend": q.kind,
            "queued": q.size,
            "live": self._live,
            "peak_occupancy": q.peak,
            "dead": q.dead,
            "pushes": q.pushes,
            "resizes": getattr(q, "resizes", 0),
            "event_pool_created": self._ev_created,
            "event_pool_reused": self._ev_reused,
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
        if not (self.now <= time < math.inf):
            if math.isfinite(time):
                raise ValueError(
                    f"cannot schedule into the past (time={time}, now={self.now})"
                )
            raise ValueError(f"event time must be finite, got {time}")
        if not callable(fn):
            raise TypeError("fn must be callable")
        seq = self._next_seq()
        # Inline construction (object.__new__ + stores) skips one Python
        # call frame on the busiest allocation site in the simulator.
        # PyEvent, not Event: the public name rebinds to the compiled
        # class when the extension loads, and this reference implementation
        # must keep building its own events either way.
        ev = _new_event(PyEvent)
        ev.time = time
        ev.priority = priority
        ev.seq = seq
        ev.fn = fn
        ev.args = args
        ev._sim = self
        self._q.push((time, priority, seq, ev))
        self._live += 1
        return ev

    def schedule_anon(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """``schedule_at`` for fire-and-forget callbacks.

        The handle comes from a per-simulator free list and is recycled
        the moment the event fires, so hot fire-and-forget sites (link
        drain wake-ups and deliveries) stop allocating.  The caller MUST
        discard the returned handle — retaining or cancelling it after
        the firing observes a recycled object.  Draws one ``seq``, like
        ``schedule_at``, so the event order is bit-identical either way.
        """
        if not FLAGS.event_pool:
            return self.schedule_at(time, fn, *args, priority=priority)
        if time.__class__ is not float:
            time = float(time)
        if not (self.now <= time < math.inf):
            if math.isfinite(time):
                raise ValueError(
                    f"cannot schedule into the past (time={time}, now={self.now})"
                )
            raise ValueError(f"event time must be finite, got {time}")
        if not callable(fn):
            raise TypeError("fn must be callable")
        seq = self._next_seq()
        pool = self._ev_pool
        if pool:
            ev = pool.pop()
            self._ev_reused += 1
        else:
            ev = _new_event(_PooledEvent)
            ev._sim = self
            self._ev_created += 1
        ev.time = time
        ev.priority = priority
        ev.seq = seq
        ev.fn = fn
        ev.args = args
        self._q.push((time, priority, seq, ev))
        self._live += 1
        return ev

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
            raise ValueError("cannot postpone a series or pooled event")
        if ev._sim is not self:
            raise ValueError("event belongs to a different simulator")
        if time.__class__ is not float:
            time = float(time)
        if ev.time <= time < math.inf:
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
            if not (prev <= t < math.inf):
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
        self._q.push((times[0], priority, seq, ev))
        self._live += 1
        return ev

    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._stopped = True

    def peek_time(self) -> float:
        """Time of the next pending event, or ``inf`` when the queue is empty."""
        return self._q.first_time()

    def pending(self) -> int:
        """Number of non-cancelled events currently queued (O(1))."""
        return self._live

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
        limit = math.inf if until is None else until
        cap = math.inf if max_events is None else max_events
        try:
            # The loop itself lives on the backend (one specialized,
            # fully inlined implementation per queue; identical execute
            # and series semantics — see the run_loop docstrings).
            self._q.run_loop(self, limit, cap)
        finally:
            self._running = False
        if until is not None and self.now < until and not self._stopped:
            self.now = float(until)
        return self.now

    # ------------------------------------------------------------ internals

    def _on_cancel(self, ev: Event) -> None:
        """Bookkeeping for a handle cancelled while still queued."""
        self._live -= 1
        self._q.note_cancel(self._live)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Simulator(now={self.now:.6f}, pending={self._live}, "
            f"queue={self._q.kind})"
        )


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
