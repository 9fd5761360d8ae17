"""Small online statistics helpers used by rate monitors and metrics."""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque


class Ewma:
    """Exponentially weighted moving average.

    ``alpha`` is the weight of the newest sample; ``alpha=1`` tracks the
    last sample exactly, small alpha smooths heavily.
    """

    __slots__ = ("alpha", "_value")

    def __init__(self, alpha: float = 0.25) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._value: float | None = None

    @property
    def value(self) -> float | None:
        """Current average, or ``None`` before any sample."""
        return self._value

    def update(self, sample: float) -> float:
        """Fold in one sample and return the new average."""
        if self._value is None:
            self._value = float(sample)
        else:
            self._value += self.alpha * (float(sample) - self._value)
        return self._value

    def reset(self) -> None:
        """Forget all samples."""
        self._value = None


class RunningStats:
    """Welford online mean/variance (numerically stable)."""

    __slots__ = ("count", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def update(self, sample: float) -> None:
        """Fold in one sample."""
        x = float(sample)
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        self._min = min(self._min, x)
        self._max = max(self._max, x)

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance (0.0 with fewer than 2 samples)."""
        return self._m2 / self.count if self.count >= 2 else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest sample seen (+inf when empty)."""
        return self._min

    @property
    def maximum(self) -> float:
        """Largest sample seen (-inf when empty)."""
        return self._max


def _check_window(window: float) -> float:
    # The chained compare also rejects NaN; an infinite window would
    # make every rate read 0.0.
    if not 0.0 < window < math.inf:
        raise ValueError(f"window must be positive and finite, got {window!r}")
    return float(window)


class WindowedRate:
    """Weighted event rate over a sliding time window.

    Used by the sinks' arrival bit-rate monitor: each record carries a
    weight (the packet's bits) and the rate is the weight sum over the
    last ``window`` seconds.  Unit-weight monitors use
    :class:`WindowedCount`.
    """

    __slots__ = ("window", "_times", "_weights", "_weight_sum", "_next_expiry")

    def __init__(self, window: float) -> None:
        self.window = _check_window(window)
        self._times: deque[float] = deque()
        self._weights: deque[float] = deque()
        self._weight_sum = 0.0
        # Prune watermark: record() only prunes once the oldest entry is
        # a full window past expiry, so the per-sample hot path is one
        # float compare and expired entries leave in one batch per
        # window (bounding memory at ~2 windows of samples).
        # rate()/count() always prune fully, so the values read are
        # exact regardless of when record() last pruned.
        self._next_expiry = -math.inf

    def record(self, now: float, weight: float = 1.0) -> None:
        """Record an event of ``weight`` (e.g. packet size) at time ``now``."""
        self._times.append(now)
        self._weights.append(weight)
        self._weight_sum += weight
        if now >= self._next_expiry:
            self._expire(now)

    def rate(self, now: float) -> float:
        """Events (weighted) per second over the trailing window."""
        self._expire(now)
        return self._weight_sum / self.window

    def count(self, now: float) -> int:
        """Number of events currently inside the window."""
        self._expire(now)
        return len(self._times)

    def _expire(self, now: float) -> None:
        cutoff = now - self.window
        times = self._times
        weights = self._weights
        while times and times[0] <= cutoff:
            times.popleft()
            self._weight_sum -= weights.popleft()
        if times:
            self._next_expiry = times[0] + 2.0 * self.window
        else:
            self._weight_sum = 0.0
            self._next_expiry = now + 2.0 * self.window


class WindowedCount:
    """Arrival count and rate over a sliding time window.

    MAFIC's per-flow arrival-rate monitor: the ATR records packet arrival
    timestamps and asks for the arrival rate over the last ``window``
    seconds.  It is :class:`WindowedRate` with unit weights minus the
    weights deque: a sum of 1.0s is an exactly counted float, so
    ``len(times) / window`` is the same value bit for bit.
    """

    __slots__ = ("window", "_times", "_next_expiry")

    def __init__(self, window: float) -> None:
        self.window = _check_window(window)
        self._times: list[float] = []  # a deque's first block is 64 slots
        # Same prune watermark as WindowedRate: record() prunes one batch
        # per window, reads always prune fully.
        self._next_expiry = -math.inf

    def record(self, now: float) -> None:
        """Record one arrival at time ``now``."""
        self._times.append(now)
        if now >= self._next_expiry:
            self._expire(now)

    def rate(self, now: float) -> float:
        """Arrivals per second over the trailing window."""
        self._expire(now)
        return len(self._times) / self.window

    def count(self, now: float) -> int:
        """Number of arrivals currently inside the window."""
        self._expire(now)
        return len(self._times)

    def idle(self, now: float) -> bool:
        """True when no arrival is inside the window at ``now``.

        Reads expire arrivals ``<= now - window``, so an idle monitor
        reads exactly like a fresh one at ``now`` and every later time.
        """
        times = self._times
        return not times or times[-1] <= now - self.window

    def _expire(self, now: float) -> None:
        cutoff = now - self.window
        times = self._times
        # ``now`` never decreases: times is sorted, so one cut expires it.
        if times and times[0] <= cutoff:
            del times[:bisect_right(times, cutoff)]
        self._next_expiry = (times[0] if times else now) + 2.0 * self.window
