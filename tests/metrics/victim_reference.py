"""The arrival-hoarding victim collector, kept as the reference.

The simulator's one victim collector,
:class:`~repro.metrics.collectors.StreamingVictimCollector`, folds each
arrival into a bounded series and the two β windows as it goes.  It
replaced the collector below, which kept one ``(time, size, is_attack)``
tuple per arrival and computed β and the Fig. 4b series after the run.
That post-hoc fold is the plain statement of what the streaming one must
compute, so the identity tests and the golden master's ``[buffered]``
arm run it (through ``build_scenario(victim_collector=...)``) and
require the streaming results to match it float for float.
"""

from __future__ import annotations

import math

from repro.metrics.timeseries import BandwidthSeries
from repro.obs.bus import NULL_BUS
from repro.obs.events import DefenseActivation, VictimArrival


def series_from_arrivals(
    arrivals: list[tuple[float, int, bool]],
    start: float,
    end: float,
    bin_width: float = 0.05,
) -> BandwidthSeries:
    """Bucket raw (time, size, is_attack) arrival events.

    Events outside [start, end) are ignored.
    """
    if end <= start:
        raise ValueError("end must exceed start")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    n_bins = max(1, int(math.ceil((end - start) / bin_width)))
    total = [0.0] * n_bins
    attack = [0.0] * n_bins
    legit = [0.0] * n_bins
    for t, size, is_attack in arrivals:
        if not start <= t < end:
            continue
        idx = min(n_bins - 1, int((t - start) / bin_width))
        kbits = size * 8.0 / 1e3
        total[idx] += kbits
        if is_attack:
            attack[idx] += kbits
        else:
            legit[idx] += kbits
    # kbits per bin -> kbps.
    scale = 1.0 / bin_width
    times = [start + (i + 0.5) * bin_width for i in range(n_bins)]
    return BandwidthSeries(
        times=times,
        total_kbps=[v * scale for v in total],
        attack_kbps=[v * scale for v in attack],
        legit_kbps=[v * scale for v in legit],
    )


def count_arrivals(events, start: float, end: float) -> tuple[int, int]:
    """(attack, legit) counts of the ``victim.arrival`` events with
    ``start <= time < end`` — the window query a test asks of a run,
    answered from a kind-filtered bus subscription."""
    attack = legit = 0
    for event in events:
        if start <= event.time < end:
            if event.is_attack:
                attack += 1
            else:
                legit += 1
    return attack, legit


class _PostHocSeries:
    """``series.finish()`` for the reference: bucket the hoard at the end."""

    def __init__(self, collector, end: float, bin_width: float) -> None:
        self.collector = collector
        self.end = end
        self.bin_width = bin_width

    def finish(self) -> BandwidthSeries:
        return series_from_arrivals(
            self.collector.arrivals, 0.0, self.end, self.bin_width
        )


class VictimMetricsCollector:
    """Arrival accounting at the victim host, by keeping every arrival.

    What the streaming collector's users touch (``on_packet``,
    ``mark_defense_activation``, ``beta_rates`` and, given a
    ``duration``, ``series``), plus the raw ``arrivals`` and the window
    queries β is folded from.
    """

    def __init__(
        self,
        bus=None,
        duration: float | None = None,
        series_bin_width: float = 0.05,
        reduction_window: float = 0.12,
        pre_window: float = 0.2,
    ) -> None:
        self.bus = bus if bus is not None else NULL_BUS
        self.arrivals: list[tuple[float, int, bool]] = []
        self.reduction_window = reduction_window
        self.pre_window = pre_window
        self.defense_activated_at: float | None = None
        if duration is not None:
            self.series = _PostHocSeries(self, duration, series_bin_width)

    def on_packet(self, packet, now: float) -> None:
        """Record one arrival at the victim."""
        self.arrivals.append((now, packet.size, packet.is_attack))
        if self.bus:
            self.bus.emit(VictimArrival(now, packet.size, packet.is_attack))

    def mark_defense_activation(self, now: float) -> None:
        """Stamp the first pushback-start instant (for β and θn windows)."""
        if self.defense_activated_at is None:
            self.defense_activated_at = now
            if self.bus:
                self.bus.emit(DefenseActivation(now))

    def bytes_in(self, start: float, end: float) -> int:
        """Total bytes arriving with ``start <= t < end``."""
        return sum(size for t, size, _ in self.arrivals if start <= t < end)

    def rate_bps_in(self, start: float, end: float) -> float:
        """Mean arrival rate in bits/s over [start, end)."""
        if end <= start:
            raise ValueError("end must exceed start")
        return self.bytes_in(start, end) * 8.0 / (end - start)

    def beta_rates(self) -> tuple[float, float]:
        """(rate_before, rate_after) bits/s around defence activation,
        from the whole arrival list (see the streaming counterpart)."""
        t0 = self.defense_activated_at
        if t0 is None:
            return 0.0, 0.0
        w = max(1e-6, self.reduction_window)
        rate_before = self.rate_bps_in(max(0.0, t0 - self.pre_window), t0)
        rate_after = self.rate_bps_in(t0 + 0.25 * w, t0 + 1.25 * w)
        return rate_before, rate_after


def run_with_reference(config, monkeypatch):
    """``run_experiment(config)`` with this collector at the victim.

    The runner's own ``build_scenario`` call is given the collector, so
    the run keeps the runner's order of packet-id reset, pool and build
    (a scenario built before the call starts from other packet ids).
    """
    from repro.experiments import runner
    from repro.experiments.scenario import DEFAULT_PRE_WINDOW

    build = runner.build_scenario

    def build_with_reference(config, bus=None, series_bin_width=0.05):
        collector = VictimMetricsCollector(
            bus=bus, duration=config.duration,
            series_bin_width=series_bin_width,
            reduction_window=config.mafic.probe_window(None),
            pre_window=DEFAULT_PRE_WINDOW,
        )
        return build(config, bus=bus, victim_collector=collector)

    monkeypatch.setattr(runner, "build_scenario", build_with_reference)
    return runner.run_experiment(config)
