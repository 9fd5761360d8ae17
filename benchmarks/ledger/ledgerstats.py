"""Statistics and the host-speed-calibrated stopwatch of the perf ledger.

Two things live here because every other ledger file needs them and
nothing else:

* the summary rules the ledger reports with — median and quartiles
  (``statistics.quantiles(n=4)``, the same call the acceptance driver
  makes), and the tail rule "the highest percentile that still has at
  least ten samples beyond it";
* :class:`Clock`, which times a call while an interval timer interrupts
  it every 50 ms to time a fixed pure-Python calibration chunk.  This
  host's speed moves between 1x and 2x within seconds (measured while
  sizing the ledger: the chunk alone moves that much, and only a tenth
  of it shows as steal time), so a raw wall is a property of the second
  it was taken in.  Dividing each op's wall by the slowdown the chunks
  sampled *during that op* show brought the spread of run medians, in a
  phase where raw medians ranged over 17-35%, down to 6-7% (README,
  noise method).  Every *ledger second* is such a calibrated second; the
  raw median and the slowdown are reported beside it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import NamedTuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10

#: Wall of one calibration chunk on the host the ledger was sized on,
#: unloaded.  It only fixes the unit: a calibrated second equals a raw
#: second on a host that runs the chunk in exactly this time.
CALIBRATION_REF_S = 0.0025

#: Wall-clock period of the calibration chunks sampled during a call.
SAMPLE_PERIOD_S = 0.05

#: Fewest chunks a slowdown rests on: a call that yielded fewer is
#: topped up with chunks run right after it.  A call that is not sampled
#: while it runs takes this many on each side instead.
MIN_CHUNKS = 16


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(values, unit: str) -> dict:
    """One metric row: median, quartiles and the sample count."""
    values = list(values)
    q1, q2, q3 = quartiles(values)
    return {"value": q2, "unit": unit, "n": len(values), "q1": q1, "q3": q3}


def exact(value, unit: str) -> dict:
    """A metric row for a single reading (count, memory, fidelity): it
    has no quartiles of its own."""
    return {"value": value, "unit": unit}


def tail_percentile(n: int) -> float | None:
    """The highest percentile with >= TAIL_MIN_BEYOND samples beyond it.

    ``None`` when even the median cannot have that many above it.
    """
    if n < 2 * TAIL_MIN_BEYOND:
        return None
    return 100.0 * (n - TAIL_MIN_BEYOND) / n


def tail_value(values) -> tuple[float, float] | None:
    """(percentile, value at it) under :func:`tail_percentile`'s rule."""
    ordered = sorted(values)
    pct = tail_percentile(len(ordered))
    if pct is None:
        return None
    # Exactly TAIL_MIN_BEYOND samples lie strictly above this index.
    return pct, ordered[len(ordered) - TAIL_MIN_BEYOND - 1]


class _Cell:
    __slots__ = ("hits", "key")

    def __init__(self, hits: int, key: int) -> None:
        self.hits = hits
        self.key = key

    def bump(self) -> int:
        self.hits += 1
        return self.hits


class Timed(NamedTuple):
    """What :meth:`Clock.timed` measured."""

    result: object
    raw: float        # seconds, net of the chunks that interrupted the call
    slowdown: float
    #: raw / gross wall: what a span timed *inside* the call, chunks and
    #: all, is multiplied by to be net of them too.
    net_share: float


class Sample:
    """The calibration chunks of one timed stretch."""

    def __init__(self) -> None:
        self.chunks: list[float] = []

    @property
    def blocked_s(self) -> float:
        """Seconds the chunks held this process's main thread."""
        return sum(self.chunks)

    @property
    def slowdown(self) -> float:
        """Mean chunk time over the reference, without the fastest and the
        slowest tenth of the chunks: a chunk the host stalls inside reads
        ten times too slow, and one such among twenty would pass for a
        host 1.5x slower than it is."""
        ordered = sorted(self.chunks)
        cut = len(ordered) // 10
        kept = ordered[cut:len(ordered) - cut]
        return sum(kept) / (len(kept) * CALIBRATION_REF_S)

    def take(self, clock: "Clock", n: int) -> None:
        self.chunks += [clock._chunk() for _ in range(n)]


class Clock:
    """Times calls in calibrated seconds (see the module docstring).

    The calibration chunk mixes what the simulator's hot path mixes —
    dict probes on a working set too big for L1, slotted-object method
    calls, tuple allocation, a binary heap — because a pure integer
    loop tracked the simulator's slowdown only half as well.
    """

    def __init__(self) -> None:
        started = time.perf_counter()
        self._cells: dict[int, _Cell] = {}
        self._heap: list = []
        self._ring: list = [None] * 4096
        for _ in range(4):  # fill the working set outside any measurement
            self._chunk()
        #: What building this clock cost (set-up counts it out).
        self.built_s = time.perf_counter() - started

    def _chunk(self) -> float:
        cells, heap, ring = self._cells, self._heap, self._ring
        started = time.perf_counter()
        for i in range(3000):
            key = (i * 2654435761) & 0x3FFF
            cell = cells.get(key)
            if cell is None:
                cell = cells[key] = _Cell(i, key)
            cell.bump()
            heappush(heap, (key * 0.001, i, cell))
            if len(heap) > 256:
                heappop(heap)
            ring[i & 4095] = (i, cell)
        return time.perf_counter() - started

    @contextmanager
    def sampled(self, during: bool = True):
        """Sample the host's speed over the ``with`` body: one chunk every
        SAMPLE_PERIOD_S from a SIGALRM handler (main thread only), topped
        up after the body to MIN_CHUNKS.

        ``during=False`` takes MIN_CHUNKS on each side of the body and
        none inside it.  That is for a body under a profiler (which would
        slow the chunk, not the host), for a body that only waits for a
        subprocess (a chunk run beside the child competes with it, and
        sampling that way tripled ``cli_cold``'s spread), and for bodies
        of a few milliseconds."""
        sample = Sample()
        busy = False

        def tick(_signum, _frame) -> None:
            nonlocal busy
            if not busy:  # a tick that lands inside a chunk is dropped
                busy = True
                sample.take(self, 1)
                busy = False

        if during:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                             SAMPLE_PERIOD_S)
        else:
            sample.take(self, MIN_CHUNKS)
        try:
            yield sample
        finally:
            if during:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
                sample.take(self, max(0, MIN_CHUNKS - len(sample.chunks)))
            else:
                sample.take(self, MIN_CHUNKS)

    def timed(self, fn, during: bool = True) -> Timed:
        """Run ``fn()`` once, after a ``gc.collect()``; the raw seconds
        exclude the chunks that interrupted it."""
        gc.collect()
        with self.sampled(during) as sample:
            before = sample.blocked_s
            started = time.perf_counter()
            result = fn()
            gross = time.perf_counter() - started
            raw = gross - (sample.blocked_s - before)
        return Timed(result, raw, sample.slowdown,
                     raw / gross if gross else 1.0)

    def repeat(self, fn, n: int) -> list[float]:
        """``n`` calibrated timings of a short ``fn`` under one slowdown,
        taken around the group: a chunk landing inside a call of a few
        milliseconds would swamp it."""
        raws: list[float] = []

        def group():
            for _ in range(n):
                started = time.perf_counter()
                fn()
                raws.append(time.perf_counter() - started)

        slowdown = self.timed(group, during=False).slowdown
        return [raw / slowdown for raw in raws]
