"""Time-series construction for the Fig. 4(b) bandwidth plots."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class BandwidthSeries:
    """Victim-arrival bandwidth bucketed into fixed bins.

    ``times`` are bin centres; rates are kbps, split by ground truth.
    """

    times: list[float]
    total_kbps: list[float]
    attack_kbps: list[float]
    legit_kbps: list[float]

    def peak_total_kbps(self) -> float:
        """Largest total-rate bin."""
        return max(self.total_kbps) if self.total_kbps else 0.0

    def mean_total_kbps(self, t0: float, t1: float) -> float:
        """Mean of total-rate bins whose centres fall in [t0, t1)."""
        values = [
            rate
            for time, rate in zip(self.times, self.total_kbps)
            if t0 <= time < t1
        ]
        return sum(values) / len(values) if values else 0.0

    def __len__(self) -> int:
        return len(self.times)


class StreamingBandwidthSeries:
    """Windowed streaming construction of a :class:`BandwidthSeries`.

    Feed arrival events as they come with :meth:`observe_many`; call
    :meth:`finish` once for the finished series.  Memory is bounded by
    the bin count (three float lists), never by the arrival count — the
    whole point for long runs.

    **Bit-exactness contract:** the per-event arithmetic (bin index,
    kbit conversion, accumulation order) and the final kbps scaling are
    the *same operations in the same order* as bucketing the whole
    arrival list after the run (``series_from_arrivals`` in
    ``tests/metrics/victim_reference.py``), so the two produce
    float-identical series however the stream is cut into calls.  The
    equivalence test in ``tests/obs`` pins this against randomized
    arrival streams, and the golden master pins it end-to-end.
    """

    def __init__(self, start: float, end: float, bin_width: float = 0.05) -> None:
        if end <= start:
            raise ValueError("end must exceed start")
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.start = float(start)
        self.end = float(end)
        self.bin_width = float(bin_width)
        self.n_bins = max(1, int(math.ceil((end - start) / bin_width)))
        self._total = [0.0] * self.n_bins
        self._attack = [0.0] * self.n_bins
        self._legit = [0.0] * self.n_bins
        self.observed = 0

    def observe_many(self, arrivals) -> None:
        """Fold (time, size, is_attack) arrivals into their bins, in order.

        Arrivals outside [start, end) are ignored.
        """
        start, end, width = self.start, self.end, self.bin_width
        last = self.n_bins - 1
        total, attack, legit = self._total, self._attack, self._legit
        observed = 0
        for t, size, is_attack in arrivals:
            if not start <= t < end:
                continue
            idx = min(last, int((t - start) / width))
            kbits = size * 8.0 / 1e3
            total[idx] += kbits
            if is_attack:
                attack[idx] += kbits
            else:
                legit[idx] += kbits
            observed += 1
        self.observed += observed

    def finish(self) -> BandwidthSeries:
        """The completed series (kbits per bin scaled to kbps)."""
        scale = 1.0 / self.bin_width
        times = [
            self.start + (i + 0.5) * self.bin_width for i in range(self.n_bins)
        ]
        return BandwidthSeries(
            times=times,
            total_kbps=[v * scale for v in self._total],
            attack_kbps=[v * scale for v in self._attack],
            legit_kbps=[v * scale for v in self._legit],
        )
