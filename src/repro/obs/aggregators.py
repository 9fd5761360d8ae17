"""Windowed streaming aggregation over the event bus.

:class:`LiveMetrics` is the sink behind ``repro serve``: it folds the
event stream into monotonic totals plus sliding-window rates (per-flow
arrival rates, MAFIC verdict churn, drop ratios) with **bounded
memory** — the window deques hold at most one entry per event inside
the window, pruned as time advances, and everything else is O(1)
counters.  It is thread-safe: the simulation thread ``emit``\\ s while
HTTP handler threads read snapshots.

The *series* streaming aggregator (the Fig. 4b series of every run)
lives with the series type itself in :mod:`repro.metrics.timeseries`;
this module is only about live views.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.obs.events import MetricEvent
from repro.util.validation import check_positive


class LiveMetrics:
    """Sliding-window live view of a running scenario.

    Parameters
    ----------
    window:
        Sliding-window length in *simulation* seconds for the rate
        figures (arrival kbps, drops/s, verdicts/s).
    """

    def __init__(self, window: float = 1.0) -> None:
        self.window = check_positive("window", window)
        self._lock = threading.Lock()
        # ----------------------------------------------- monotonic totals
        self.sim_time = 0.0
        self.arrivals_total = 0
        self.arrival_bytes_total = 0
        self.attack_arrivals_total = 0
        self.legit_arrivals_total = 0
        self.decisions_total: dict[str, int] = {}  # action -> count
        self.drops_by_reason: dict[str, int] = {}
        self.decisions_by_truth: dict[tuple[str, str], int] = {}
        self.verdicts_total: dict[str, int] = {}  # verdict -> count
        self.verdict_confusion: dict[tuple[str, str], int] = {}
        self.link_drops: dict[tuple[str, str], int] = {}  # (link, reason)
        self.activation_time: float | None = None
        self.epochs = 0
        self.events_executed = 0
        self.pending_events = 0
        self.queue_backend = ""
        self.engine_build = ""
        self.runs_started = 0
        self.runs_completed = 0
        self.last_run: dict | None = None
        self.campaign: dict | None = None
        # -------------------------------------------------- sliding window
        # (time, bytes, is_attack) / (time,) tuples, pruned by sim time.
        self._arrival_window: deque[tuple[float, int, bool]] = deque()
        self._drop_window: deque[float] = deque()
        self._verdict_window: deque[float] = deque()

    # ------------------------------------------------------------ sink API

    def emit(self, event: MetricEvent) -> None:
        self.emit_many((event,))

    def emit_many(self, events) -> None:
        """Fold ``events`` in order under one lock; snapshots taken
        between batches are what per-event folding would have shown.

        The windows are pruned once, at the batch's end, against its
        latest clock.  ``sim_time`` never decreases, so that cutoff is
        the batch's largest, and the deques come out as per-event
        pruning leaves them (``tests/obs/test_batch_equivalence.py``).
        """
        with self._lock:
            arrivals = self._arrival_window
            drops = self._drop_window
            decisions = self.decisions_total
            by_truth = self.decisions_by_truth
            drops_by_reason = self.drops_by_reason
            link_drops = self.link_drops
            for event in events:
                kind = event.kind
                time = event.time
                if time > self.sim_time:
                    self.sim_time = time
                if kind == "victim.arrival":
                    self.arrivals_total += 1
                    self.arrival_bytes_total += event.size
                    if event.is_attack:
                        self.attack_arrivals_total += 1
                    else:
                        self.legit_arrivals_total += 1
                    arrivals.append((time, event.size, event.is_attack))
                elif kind == "defense.decision":
                    action = event.action
                    decisions[action] = decisions.get(action, 0) + 1
                    key = (event.truth, action)
                    by_truth[key] = by_truth.get(key, 0) + 1
                    if action == "drop":
                        reason = event.reason
                        drops_by_reason[reason] = (
                            drops_by_reason.get(reason, 0) + 1
                        )
                        drops.append(time)
                elif kind == "defense.verdict":
                    self.verdicts_total[event.verdict] = (
                        self.verdicts_total.get(event.verdict, 0) + 1
                    )
                    key = (event.truth, event.verdict)
                    self.verdict_confusion[key] = (
                        self.verdict_confusion.get(key, 0) + 1
                    )
                    self._verdict_window.append(time)
                elif kind == "defense.activation":
                    if self.activation_time is None:
                        self.activation_time = time
                elif kind == "monitor.snapshot":
                    self.epochs = event.epoch
                elif kind == "engine.stats":
                    self.events_executed = event.events_executed
                    self.pending_events = event.pending
                    self.queue_backend = event.backend
                elif kind == "link.drop":
                    key = (event.link, event.reason)
                    link_drops[key] = link_drops.get(key, 0) + 1
                elif kind == "run.started":
                    self.runs_started += 1
                    engine = getattr(event, "engine", "")
                    if engine:
                        self.engine_build = engine
                elif kind == "run.completed":
                    self.runs_completed += 1
                    self.last_run = event.to_dict()
                elif kind == "campaign.progress":
                    self.campaign = event.to_dict()
            self._prune(self.sim_time)

    def close(self) -> None:
        """Nothing to flush; the last snapshot stays readable."""

    # ----------------------------------------------------------- windowing

    def _prune(self, now: float) -> None:
        cutoff = now - self.window
        window = self._arrival_window
        while window and window[0][0] < cutoff:
            window.popleft()
        drops = self._drop_window
        while drops and drops[0] < cutoff:
            drops.popleft()
        verdicts = self._verdict_window
        while verdicts and verdicts[0] < cutoff:
            verdicts.popleft()

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> dict:
        """One consistent dict of totals + windowed rates (thread-safe).

        Windowed figures divide by the configured window, so early-run
        values ramp up from zero rather than spiking (same convention as
        Prometheus ``rate()`` over a fixed range).
        """
        with self._lock:
            window_bytes = sum(entry[1] for entry in self._arrival_window)
            window_attack = sum(
                entry[1] for entry in self._arrival_window if entry[2]
            )
            dropped = self.decisions_total.get("drop", 0)
            examined = dropped + self.decisions_total.get("pass", 0)
            return {
                "sim_time": self.sim_time,
                "window_seconds": self.window,
                "arrivals_total": self.arrivals_total,
                "attack_arrivals_total": self.attack_arrivals_total,
                "legit_arrivals_total": self.legit_arrivals_total,
                "arrival_bytes_total": self.arrival_bytes_total,
                "arrival_kbps": window_bytes * 8.0 / 1e3 / self.window,
                "attack_kbps": window_attack * 8.0 / 1e3 / self.window,
                "legit_kbps": (
                    (window_bytes - window_attack) * 8.0 / 1e3 / self.window
                ),
                "examined_total": examined,
                "dropped_total": dropped,
                "drop_ratio": dropped / examined if examined else 0.0,
                "drops_per_second": len(self._drop_window) / self.window,
                "drops_by_reason": dict(self.drops_by_reason),
                "verdicts_total": dict(self.verdicts_total),
                "verdicts_per_second": len(self._verdict_window) / self.window,
                "verdict_confusion": {
                    f"{truth}:{verdict}": count
                    for (truth, verdict), count in sorted(
                        self.verdict_confusion.items()
                    )
                },
                "activation_time": self.activation_time,
                "epochs": self.epochs,
                "events_executed": self.events_executed,
                "pending_events": self.pending_events,
                "queue_backend": self.queue_backend,
                "engine_build": self.engine_build,
                "link_drops": {
                    f"{link}:{reason}": count
                    for (link, reason), count in sorted(self.link_drops.items())
                },
                "runs_started": self.runs_started,
                "runs_completed": self.runs_completed,
                "last_run": self.last_run,
                "campaign": self.campaign,
            }


class _FlowEntry:
    """One tracked flow's drill-down counters (exact since admission)."""

    __slots__ = (
        "flow", "truth", "atr", "drops", "passes", "drops_by_reason",
        "verdicts", "last_verdict", "last_verdict_time", "last_seen",
        "weight",
    )

    def __init__(self, flow: int, weight_floor: int) -> None:
        self.flow = flow
        self.truth = ""
        self.atr = ""
        self.drops = 0
        self.passes = 0
        self.drops_by_reason: dict[str, int] = {}
        self.verdicts = 0
        self.last_verdict = ""
        self.last_verdict_time: float | None = None
        self.last_seen = 0.0
        #: Space-saving activity weight; seeded with the evicted
        #: minimum so a re-admitted heavy hitter is not instantly
        #: evicted again.  Per-field counters above stay exact for the
        #: tracked period — only the eviction ORDER uses the floor.
        self.weight = weight_floor

    def to_dict(self) -> dict:
        return {
            "flow": self.flow,
            "truth": self.truth,
            "atr": self.atr,
            "drops": self.drops,
            "passes": self.passes,
            "drops_by_reason": dict(self.drops_by_reason),
            "verdicts": self.verdicts,
            "last_verdict": self.last_verdict,
            "last_verdict_time": self.last_verdict_time,
            "last_seen": self.last_seen,
        }


class FlowDrilldown:
    """Bounded top-K table of the most-dropped / most-throttled flows.

    A sink over ``defense.decision`` and ``defense.verdict`` events
    (which carry the flow hash and the deciding ATR).  Memory is bounded
    by ``capacity`` tracked flows via the space-saving heuristic: when a
    new flow arrives at a full table, the entry with the least activity
    is evicted and the newcomer inherits its activity weight as a floor,
    so persistent heavy hitters always survive one-packet noise.  The
    per-flow counters themselves are exact for the tracked period;
    ``evicted_flows`` in the snapshot tells truncation from quiet runs.

    Thread-safe: the simulation (or demux) thread emits while HTTP
    handlers snapshot.
    """

    def __init__(self, capacity: int = 512, top_k: int = 20) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.capacity = int(capacity)
        self.top_k = int(top_k)
        self._lock = threading.Lock()
        self._flows: dict[int, _FlowEntry] = {}
        self.evicted_flows = 0
        self.decisions_seen = 0
        self.verdicts_seen = 0

    # ------------------------------------------------------------ sink API

    def emit(self, event: MetricEvent) -> None:
        kind = event.kind
        if kind == "defense.decision":
            with self._lock:
                self.decisions_seen += 1
                entry = self._entry(event.flow)
                entry.weight += 1
                entry.last_seen = event.time
                entry.truth = event.truth
                if event.atr:
                    entry.atr = event.atr
                if event.action == "drop":
                    entry.drops += 1
                    entry.drops_by_reason[event.reason] = (
                        entry.drops_by_reason.get(event.reason, 0) + 1
                    )
                else:
                    entry.passes += 1
        elif kind == "defense.verdict":
            with self._lock:
                self.verdicts_seen += 1
                entry = self._entry(event.label)
                entry.weight += 1
                entry.last_seen = event.time
                entry.truth = event.truth
                if event.atr:
                    entry.atr = event.atr
                entry.verdicts += 1
                entry.last_verdict = event.verdict
                entry.last_verdict_time = event.time

    def close(self) -> None:
        """Nothing to flush; the table stays readable."""

    # ----------------------------------------------------------- internals

    def _entry(self, flow: int) -> _FlowEntry:
        entry = self._flows.get(flow)
        if entry is not None:
            return entry
        floor = 0
        if len(self._flows) >= self.capacity:
            victim = min(self._flows.values(), key=lambda e: e.weight)
            del self._flows[victim.flow]
            self.evicted_flows += 1
            floor = victim.weight
        entry = _FlowEntry(flow, floor)
        self._flows[flow] = entry
        return entry

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> dict:
        """Top-K tables plus tracking health, one consistent view."""
        with self._lock:
            entries = list(self._flows.values())
            top_dropped = sorted(
                (e for e in entries if e.drops),
                key=lambda e: (-e.drops, e.flow),
            )[: self.top_k]
            top_throttled = sorted(
                (
                    e for e in entries
                    if e.drops_by_reason.get("probe", 0)
                ),
                key=lambda e: (-e.drops_by_reason.get("probe", 0), e.flow),
            )[: self.top_k]
            return {
                "capacity": self.capacity,
                "top_k": self.top_k,
                "tracked_flows": len(entries),
                "evicted_flows": self.evicted_flows,
                "decisions_seen": self.decisions_seen,
                "verdicts_seen": self.verdicts_seen,
                "top_dropped": [e.to_dict() for e in top_dropped],
                "top_throttled": [e.to_dict() for e in top_throttled],
            }


class _AtrEntry:
    """One ATR's verdict-churn and drop counters."""

    __slots__ = (
        "atr", "verdicts", "flips", "drops", "drops_by_reason", "passes",
        "probes", "activated_at", "deactivated_at",
        "last_verdict_time", "verdict_window", "last_flow_verdict",
    )

    def __init__(self, atr: str) -> None:
        self.atr = atr
        self.verdicts: dict[str, int] = {}
        self.flips = 0
        self.drops = 0
        self.passes = 0
        self.drops_by_reason: dict[str, int] = {}
        self.probes = 0
        #: First pushback start and last pushback stop at this ATR.
        self.activated_at: float | None = None
        self.deactivated_at: float | None = None
        self.last_verdict_time: float | None = None
        self.verdict_window: deque[float] = deque()
        #: flow -> last verdict at THIS atr, for flip detection.
        self.last_flow_verdict: dict[int, str] = {}


class AtrDrilldown:
    """Per-ATR verdict-churn and load tracker.

    Folds ``defense.verdict``, ``defense.decision``, ``defense.probe``
    and ``defense.pushback`` events into one entry per ATR: verdict
    counts by outcome, windowed verdict rate, drop/pass counts by
    reason, probes sent, the first pushback start and the last stop,
    and **flips** — a flow re-judged to a different outcome than its
    previous verdict at the same ATR (the signature of verdict churn
    under ``renotice_interval`` re-probing, and of an adversary
    laundering flows through the nice table).

    ATR cardinality is topology-bounded (one per ingress), so entries
    are only bounded per-ATR: the flip-detection map remembers at most
    ``flow_memory`` flows per ATR, evicting oldest-inserted first.
    """

    def __init__(self, window: float = 1.0, flow_memory: int = 4096) -> None:
        self.window = check_positive("window", window)
        if flow_memory < 1:
            raise ValueError("flow_memory must be >= 1")
        self.flow_memory = int(flow_memory)
        self._lock = threading.Lock()
        self._atrs: dict[str, _AtrEntry] = {}
        self.sim_time = 0.0

    # ------------------------------------------------------------ sink API

    def emit(self, event: MetricEvent) -> None:
        kind = event.kind
        if kind == "defense.verdict":
            with self._lock:
                self._advance(event.time)
                entry = self._entry(event.atr)
                entry.verdicts[event.verdict] = (
                    entry.verdicts.get(event.verdict, 0) + 1
                )
                entry.last_verdict_time = event.time
                entry.verdict_window.append(event.time)
                previous = entry.last_flow_verdict.get(event.label)
                if previous is not None and previous != event.verdict:
                    entry.flips += 1
                if (
                    previous is None
                    and len(entry.last_flow_verdict) >= self.flow_memory
                ):
                    # Oldest-inserted eviction (dict preserves insertion
                    # order); forgets stale flows, keeps recent churn.
                    entry.last_flow_verdict.pop(
                        next(iter(entry.last_flow_verdict))
                    )
                entry.last_flow_verdict[event.label] = event.verdict
        elif kind == "defense.decision":
            with self._lock:
                self._advance(event.time)
                entry = self._entry(event.atr)
                if event.action == "drop":
                    entry.drops += 1
                    entry.drops_by_reason[event.reason] = (
                        entry.drops_by_reason.get(event.reason, 0) + 1
                    )
                else:
                    entry.passes += 1
        elif kind == "defense.probe":
            with self._lock:
                self._advance(event.time)
                self._entry(event.atr).probes += 1
        elif kind == "defense.pushback":
            with self._lock:
                self._advance(event.time)
                entry = self._entry(event.atr)
                if not event.active:
                    entry.deactivated_at = event.time
                elif entry.activated_at is None:
                    entry.activated_at = event.time

    def close(self) -> None:
        """Nothing to flush; the table stays readable."""

    # ----------------------------------------------------------- internals

    def _entry(self, atr: str) -> _AtrEntry:
        entry = self._atrs.get(atr)
        if entry is None:
            entry = _AtrEntry(atr)
            self._atrs[atr] = entry
        return entry

    def _advance(self, now: float) -> None:
        if now > self.sim_time:
            self.sim_time = now
        cutoff = self.sim_time - self.window
        for entry in self._atrs.values():
            window = entry.verdict_window
            while window and window[0] < cutoff:
                window.popleft()

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> dict:
        """Every ATR's churn view, busiest (most verdicts) first."""
        with self._lock:
            rows = []
            for entry in self._atrs.values():
                total = sum(entry.verdicts.values())
                rows.append({
                    "atr": entry.atr,
                    "verdicts_total": total,
                    "verdicts": dict(sorted(entry.verdicts.items())),
                    "flips": entry.flips,
                    "drops": entry.drops,
                    "passes": entry.passes,
                    "drops_by_reason": dict(
                        sorted(entry.drops_by_reason.items())
                    ),
                    "probes": entry.probes,
                    "activated_at": entry.activated_at,
                    "deactivated_at": entry.deactivated_at,
                    "verdicts_per_second": (
                        len(entry.verdict_window) / self.window
                    ),
                    "last_verdict_time": entry.last_verdict_time,
                })
            rows.sort(key=lambda row: (-row["verdicts_total"], row["atr"]))
            return {
                "window_seconds": self.window,
                "sim_time": self.sim_time,
                "atrs": rows,
            }
