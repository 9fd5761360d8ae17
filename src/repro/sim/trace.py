"""Event tracing: a structured record of what happened in a run.

Used by tests (assert a probe was sent, a flow was cut) and by the
derived views in :mod:`repro.analysis.tracetools`.  Tracing is on by
default: every run built from an ``ExperimentConfig`` records into one
trace unless ``trace_enabled`` is off, capped at ``trace_max_records``.

The trace is stored as four parallel columns, one value per record: an
``array('d')`` of times, and lists of categories, flows and ATR names.
A record therefore costs four 8-byte slots (about 35 bytes with the
columns' spare capacity) and no object of its own: categories are
shared constant strings, and flows and ATR names are objects the caller
already holds.  :class:`TraceRecord` views are built only when the
trace is read.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced event."""

    time: float
    category: str
    detail: dict[str, Any] = field(default_factory=dict)


def _view(
    time: float, category: str, flow: int | None, atr: str | None
) -> TraceRecord:
    """A record's view: ``detail`` holds only the keys that were given."""
    detail: dict[str, Any] = {}
    if flow is not None:
        detail["flow"] = flow
    if atr is not None:
        detail["atr"] = atr
    return TraceRecord(time, category, detail)


class EventTrace:
    """Append-only columnar event log with category filtering.

    Categories used across the library:

    - ``"drop.probe"`` — MAFIC dropped a packet during probing
    - ``"drop.pdt"`` — dropped because the flow is in the PDT
    - ``"drop.illegal"`` — dropped for an illegal claimed source
    - ``"drop.policy"`` — a baseline policy dropped without probing
    - ``"probe.sent"`` — duplicate-ACK probe emitted
    - ``"flow.nice"`` / ``"flow.cut"`` — SFT verdicts
    - ``"pushback.start"`` / ``"pushback.stop"`` — control plane

    A record carries an optional ``flow`` and an optional ``atr``;
    ``None`` means the key was not given.
    """

    def __init__(self, enabled: bool = True, max_records: int | None = None) -> None:
        self.enabled = enabled
        self.max_records = max_records
        self.dropped_records = 0
        self._times = array("d")
        self._categories: list[str] = []
        self._flows: list[int | None] = []
        self._atrs: list[str | None] = []

    def record(
        self,
        time: float,
        category: str,
        *,
        flow: int | None = None,
        atr: str | None = None,
    ) -> None:
        """Append one record (no-op when disabled or full)."""
        if not self.enabled:
            return
        if self.max_records is not None and len(self._times) >= self.max_records:
            self.dropped_records += 1
            return
        self._times.append(time)
        self._categories.append(category)
        self._flows.append(flow)
        self._atrs.append(atr)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_view, self._times, self._categories, self._flows, self._atrs)

    def _matching(self, category: str) -> set[str]:
        """The distinct categories ``category`` selects (prefix match
        with trailing '.')."""
        if category.endswith("."):
            return {c for c in self.categories() if c.startswith(category)}
        return {category}

    def _views(self, indices: Iterable[int]) -> list[TraceRecord]:
        times, categories, flows, atrs = (
            self._times, self._categories, self._flows, self._atrs
        )
        return [_view(times[i], categories[i], flows[i], atrs[i]) for i in indices]

    def select(self, category: str) -> list[TraceRecord]:
        """All records of one category (prefix match with trailing '.')."""
        wanted = self._matching(category)
        return self._views(i for i, c in enumerate(self._categories) if c in wanted)

    def count(self, category: str) -> int:
        """Number of records of one category."""
        return sum(map(self._categories.count, self._matching(category)))

    def between(self, start: float, end: float) -> list[TraceRecord]:
        """Records with ``start <= time < end``."""
        return self._views(i for i, t in enumerate(self._times) if start <= t < end)

    def categories(self) -> set[str]:
        """Distinct categories present."""
        return set(self._categories)

    def clear(self) -> None:
        """Drop all records."""
        del self._times[:]
        self._categories.clear()
        self._flows.clear()
        self._atrs.clear()
        self.dropped_records = 0

    def extend(self, records: Iterable[TraceRecord]) -> None:
        """Bulk-append (merging traces from sub-components)."""
        for record in records:
            self.record(record.time, record.category, **record.detail)
