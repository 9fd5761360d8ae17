"""Ground-truth metric collectors.

The defence never reads ground truth; these collectors do.  A packet's
``is_attack`` flag and a flow-hash -> :class:`FlowTruth` map (built by
the experiment, which knows which flows it created) classify every
decision the ATRs and the victim sink observe.

Both collectors double as event *publishers*: pass an
:class:`~repro.obs.bus.EventBus` and every decision, probe, verdict,
pushback start/stop, arrival, and activation is emitted onto it in
addition to the counter updates.
With no bus attached (the default, ``None``), the only added cost is one
frame-free falsy check per call — the counters and summaries are
bit-identical either way, which the golden-master suite pins.

The victim collector keeps no per-arrival history: a windowed series
aggregator plus just enough recent history for the β windows (see
:meth:`StreamingVictimCollector.beta_rates`), so its memory is bounded
by the series' bin count, not by the run's length.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

from repro.metrics.timeseries import StreamingBandwidthSeries
from repro.obs.bus import MetricSink
from repro.obs.events import (
    DefenseActivation,
    DefenseDecision,
    DefenseProbe,
    DefensePushback,
    Verdict,
    VictimArrival,
)
from repro.sim.packet import Packet


class FlowTruth(Enum):
    """Ground-truth class of a flow."""

    ATTACK = "attack"
    TCP_LEGIT = "tcp_legit"  # well-behaved: legitimate AND responsive
    UDP_LEGIT = "udp_legit"  # legitimate but unresponsive (collateral zone)
    UNKNOWN = "unknown"


#: Truth code -> class, for the packed verdict log.
_TRUTHS = tuple(FlowTruth)
_TRUTH_CODES = {truth: code for code, truth in enumerate(_TRUTHS)}


class VerdictLog:
    """Every table verdict in arrival order, as packed columns.

    A verdict costs 18 bytes: its time (``array('d')``), its flow label
    (``array('Q')``) and one-byte codes for the verdict and the flow's
    ground truth.  Iterating yields the ``(now, label, verdict, truth)``
    tuples a list of them would hold, floats and ints bit-identical.
    """

    __slots__ = ("_times", "_labels", "_verdicts", "_truths", "_codes")

    def __init__(self) -> None:
        self._times = array("d")
        self._labels = array("Q")
        self._verdicts = bytearray()
        self._truths = bytearray()
        self._codes: dict[str, int] = {}  # verdict -> code, codes in order

    def append(self, now: float, label: int, verdict: str, truth: FlowTruth) -> None:
        """Record one verdict."""
        code = self._codes.get(verdict)
        if code is None:
            code = self._codes[verdict] = len(self._codes)
        self._times.append(now)
        self._labels.append(label)
        self._verdicts.append(code)
        self._truths.append(_TRUTH_CODES[truth])

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self):
        return zip(
            self._times, self._labels,
            map(tuple(self._codes).__getitem__, self._verdicts),
            map(_TRUTHS.__getitem__, self._truths),
        )


@dataclass
class _ClassCounts:
    """Per-truth-class examined/dropped/passed counters."""

    examined: int = 0
    dropped: int = 0
    passed: int = 0
    dropped_probe: int = 0
    dropped_pdt: int = 0
    dropped_illegal: int = 0
    dropped_policy: int = 0


class DefenseMetricsCollector:
    """Implements the agent's DefenseObserver protocol with ground truth.

    One collector can serve many ATR agents (counts aggregate across the
    defence line, which is how the paper reports its rates).
    """

    def __init__(
        self,
        flow_truth: dict[int, FlowTruth] | None = None,
        bus: MetricSink | None = None,
    ) -> None:
        self.flow_truth = flow_truth if flow_truth is not None else {}
        self.bus = bus  # None when off: `if self.bus` then costs no frame
        self.counts: dict[FlowTruth, _ClassCounts] = {
            truth: _ClassCounts() for truth in FlowTruth
        }
        self.verdicts = VerdictLog()
        # (truth, verdict) -> count, in first-seen order.
        self._confusion: dict[tuple[FlowTruth, str], int] = {}
        self.first_drop_time: float | None = None

    # ------------------------------------------------- observer interface

    def on_defense_drop(
        self, packet: Packet, reason: str, now: float, atr: str = ""
    ) -> None:
        """Record one dropped packet with its ground-truth class."""
        truth = self._classify(packet)
        counts = self.counts[truth]
        counts.examined += 1
        counts.dropped += 1
        if reason == "probe":
            counts.dropped_probe += 1
        elif reason == "pdt":
            counts.dropped_pdt += 1
        elif reason == "illegal":
            counts.dropped_illegal += 1
        else:
            counts.dropped_policy += 1
        if self.first_drop_time is None:
            self.first_drop_time = now
        if self.bus:
            self.bus.emit(DefenseDecision(
                now, "drop", reason, truth.value, packet.flow_hash, atr
            ))

    def on_defense_pass(
        self, packet: Packet, now: float, atr: str = ""
    ) -> None:
        """Record one passed packet."""
        truth = self._classify(packet)
        counts = self.counts[truth]
        counts.examined += 1
        counts.passed += 1
        if self.bus:
            self.bus.emit(DefenseDecision(
                now, "pass", "", truth.value, packet.flow_hash, atr
            ))

    def on_verdict(
        self, label, verdict: str, now: float, atr: str = ""
    ) -> None:
        """Record a table verdict with the flow's ground truth."""
        truth = self.flow_truth.get(int(label), FlowTruth.UNKNOWN)
        self.verdicts.append(now, int(label), verdict, truth)
        key = (truth, verdict)
        self._confusion[key] = self._confusion.get(key, 0) + 1
        if self.bus:
            self.bus.emit(Verdict(
                now, int(label), verdict, truth.value, atr
            ))

    def on_probe(self, label, now: float, atr: str = "") -> None:
        """Publish a duplicate-ACK probe (no counter: the agent keeps it)."""
        if self.bus:
            self.bus.emit(DefenseProbe(now, int(label), atr))

    def on_pushback(self, active: bool, now: float, atr: str = "") -> None:
        """Publish an ATR's pushback start (``active``) or stop."""
        if self.bus:
            self.bus.emit(DefensePushback(now, active, atr))

    # ----------------------------------------------------------- summaries

    def _classify(self, packet: Packet) -> FlowTruth:
        if packet.is_attack:
            return FlowTruth.ATTACK
        return self.flow_truth.get(packet.flow_hash, FlowTruth.UNKNOWN)

    def of(self, truth: FlowTruth) -> _ClassCounts:
        """Counters of one ground-truth class."""
        return self.counts[truth]

    @property
    def total_examined(self) -> int:
        """Packets of every class examined by the defence line."""
        return sum(c.examined for c in self.counts.values())

    @property
    def total_dropped(self) -> int:
        """Packets of every class dropped by the defence line."""
        return sum(c.dropped for c in self.counts.values())

    def verdict_confusion(self) -> dict[tuple[FlowTruth, str], int]:
        """(truth, verdict) -> count over all recorded verdicts."""
        return dict(self._confusion)


class StreamingVictimCollector:
    """Arrival accounting at the victim host, in bounded memory.

    Wire its :meth:`on_packet` into the victim sinks (they count the
    arrivals).  An arrival is appended to a short list, and every
    :data:`FOLD_EVERY` arrivals the list is folded into a
    :class:`~repro.metrics.timeseries.StreamingBandwidthSeries` (Fig. 4b)
    and then cut: before defence activation, to the arrivals of the last
    ``pre_window`` (all the β *before* window can still need); after it,
    to nothing, once the β *after* window has summed its bytes.

    Each quantity is the same arithmetic on the same arrivals as a
    post-hoc fold over the whole arrival list, so :meth:`beta_rates` and
    the series are float-identical to it: the identity tests and the
    golden master's ``collector`` axis pin this collector to that
    reference (``tests/metrics/victim_reference.py``).  The β windows are
    fixed at construction.
    """

    def __init__(
        self,
        duration: float,
        series_bin_width: float = 0.05,
        reduction_window: float = 0.12,
        pre_window: float = 0.2,
        bus: MetricSink | None = None,
    ) -> None:
        if pre_window <= 0:
            raise ValueError("pre_window must be positive")
        self.bus = bus  # None when off: `if self.bus` then costs no frame
        self._series = StreamingBandwidthSeries(
            start=0.0, end=duration, bin_width=series_bin_width
        )
        self.reduction_window = float(reduction_window)
        self.pre_window = float(pre_window)
        self.defense_activated_at: float | None = None
        # (time, size, is_attack) in arrival (so time) order: the first
        # ``_folded`` are in the series already and kept only for the β
        # before-window; the rest wait for the next fold.
        self._pending: list[tuple[float, int, bool]] = []
        self._folded = 0
        self._fold_at = FOLD_EVERY
        self._rate_before = 0.0
        # The after window [t0 + w/4, t0 + 5w/4): bounds set at
        # activation, bytes accumulated as covered arrivals are folded.
        self._after_start = 0.0
        self._after_end = 0.0
        self._after_span = 0.0
        self._after_bytes = 0

    @property
    def series(self) -> StreamingBandwidthSeries:
        """The Fig. 4(b) series aggregator, every arrival so far in it."""
        self._fold()
        return self._series

    def on_packet(self, packet: Packet, now: float) -> None:
        """Record one arrival at the victim."""
        pending = self._pending
        pending.append((now, packet.size, packet.is_attack))
        if len(pending) >= self._fold_at:
            self._fold()
        if self.bus:
            self.bus.emit(VictimArrival(now, packet.size, packet.is_attack))

    def _fold(self) -> None:
        pending = self._pending
        self._series.observe_many(pending[self._folded:])
        if self.defense_activated_at is None:
            # Older arrivals can never fall in the before window, since
            # activation comes at the newest arrival's time or later.
            if pending:
                cutoff = pending[-1][0] - self.pre_window
                del pending[:bisect_left(pending, (cutoff,))]
        else:
            start, end = self._after_start, self._after_end
            if pending and pending[0][0] < end:
                self._after_bytes += sum(
                    size for t, size, _ in pending if start <= t < end
                )
            pending.clear()
        self._folded = len(pending)
        self._fold_at = len(pending) + FOLD_EVERY

    def mark_defense_activation(self, now: float) -> None:
        """Stamp activation; fix the β before-window rate exactly."""
        if self.defense_activated_at is not None:
            return
        t0 = now
        start = max(0.0, t0 - self.pre_window)
        # The predicate, operand order and integer sum of a post-hoc
        # bytes-in-[start, t0) over the full arrival list: arrivals
        # older than `start` were dropped at a fold or are filtered here.
        total = sum(
            size for t, size, _ in self._pending if start <= t < t0
        )
        self._rate_before = total * 8.0 / (t0 - start)
        w = max(1e-6, self.reduction_window)
        self._after_start = t0 + 0.25 * w
        self._after_end = t0 + 1.25 * w
        self._after_span = self._after_end - self._after_start
        self.defense_activated_at = now
        self._fold()  # nothing pending is in the after window: t <= t0
        if self.bus:
            self.bus.emit(DefenseActivation(now))

    def beta_rates(self) -> tuple[float, float]:
        """(rate_before, rate_after) bits/s around defence activation.

        ``rate_before`` spans the ``pre_window`` ending at activation;
        ``rate_after`` spans one ``reduction_window`` offset a quarter
        window past activation (letting queued packets flush) — the β
        definition documented in :mod:`repro.metrics.rates`, over the
        windows fixed at construction.  Returns (0.0, 0.0) when the
        defence never activated.
        """
        if self.defense_activated_at is None:
            return 0.0, 0.0
        self._fold()
        rate_after = self._after_bytes * 8.0 / self._after_span
        return self._rate_before, rate_after


#: Arrivals the victim collector appends between two folds.
FOLD_EVERY = 512
