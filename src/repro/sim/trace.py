"""Event tracing: a structured record of what happened in a run.

Used by tests (assert a probe was sent, a flow was cut) and by the Fig. 4b
time-series reconstruction.  Tracing is opt-in and cheap when disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced event."""

    time: float
    category: str
    detail: dict[str, Any] = field(default_factory=dict)


class EventTrace:
    """Append-only event log with category filtering.

    Categories used across the library:

    - ``"drop.probe"`` — MAFIC dropped a packet during probing
    - ``"drop.pdt"`` — dropped because the flow is in the PDT
    - ``"drop.queue"`` — queue overflow
    - ``"probe.sent"`` — duplicate-ACK probe emitted
    - ``"flow.nice"`` / ``"flow.cut"`` — SFT verdicts
    - ``"pushback.start"`` / ``"pushback.stop"`` — control plane
    """

    def __init__(self, enabled: bool = True, max_records: int | None = None) -> None:
        self.enabled = enabled
        self.max_records = max_records
        self._records: list[TraceRecord] = []
        self.dropped_records = 0

    def record(self, time: float, category: str, **detail: Any) -> None:
        """Append one record (no-op when disabled or full)."""
        if not self.enabled:
            return
        if self.max_records is not None and len(self._records) >= self.max_records:
            self.dropped_records += 1
            return
        self._records.append(TraceRecord(time=time, category=category, detail=detail))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def select(self, category: str) -> list[TraceRecord]:
        """All records of one category (prefix match with trailing '.')."""
        if category.endswith("."):
            return [r for r in self._records if r.category.startswith(category)]
        return [r for r in self._records if r.category == category]

    def count(self, category: str) -> int:
        """Number of records of one category."""
        return len(self.select(category))

    def between(self, start: float, end: float) -> list[TraceRecord]:
        """Records with ``start <= time < end``."""
        return [r for r in self._records if start <= r.time < end]

    def categories(self) -> set[str]:
        """Distinct categories present."""
        return {r.category for r in self._records}

    def clear(self) -> None:
        """Drop all records."""
        self._records.clear()
        self.dropped_records = 0

    def extend(self, records: Iterable[TraceRecord]) -> None:
        """Bulk-append (merging traces from sub-components)."""
        for record in records:
            if self.max_records is not None and len(self._records) >= self.max_records:
                self.dropped_records += 1
                continue
            self._records.append(record)
