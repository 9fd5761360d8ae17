"""The three MAFIC flow tables: SFT, NFT, PDT.

* **SFT** (Suspicious Flow Table) — flows currently under probe: dropped
  packets' timestamps, the pre-probe baseline rate, and the verdict timer.
* **NFT** (Nice Flow Table) — flows that responded to the probe; passed
  untouched from then on.  It maps a label to its admission time, the
  one thing read back (by ``renotice_interval``).
* **PDT** (Permanently Drop Table) — flows judged unresponsive (or with
  illegal sources); every packet dropped.  It maps a label to the reason.

Tables are keyed by flow labels (the ``int`` hash of the 4-tuple, see
:mod:`repro.core.labels`), never by raw addresses, per Section III.B.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.util.stats import WindowedCount


class TableName(Enum):
    """Which table a flow currently sits in."""

    SFT = "sft"
    NFT = "nft"
    PDT = "pdt"


@dataclass(slots=True)
class SftEntry:
    """Probe state of one suspicious flow."""

    label: int
    probe_started: float
    deadline: float
    baseline_rate: float  # packets/s before the probe began
    packets_seen: int = 0
    monitor: WindowedCount | None = None


@dataclass(slots=True)
class TableCounters:
    """Aggregate occupancy/traffic counters across the three tables."""

    sft_admissions: int = 0
    nft_admissions: int = 0
    pdt_admissions: int = 0
    sft_evictions: int = 0
    pdt_evictions: int = 0
    flushes: int = 0


class FlowTables:
    """The SFT/NFT/PDT triple with the transitions of Figure 2."""

    __slots__ = ("sft", "nft", "pdt", "counters")

    def __init__(self) -> None:
        self.sft: dict[int, SftEntry] = {}
        self.nft: dict[int, float] = {}  # label -> admission time
        self.pdt: dict[int, str] = {}  # label -> reason
        self.counters = TableCounters()

    # ------------------------------------------------------------- lookups

    def lookup(self, label: int) -> TableName | None:
        """Which table holds ``label``, or None when unknown.

        Checked in PDT, NFT, SFT order — matching Figure 2's decision
        chain (a condemned flow must stay condemned even if a stale SFT
        entry lingers).
        """
        if label in self.pdt:
            return TableName.PDT
        if label in self.nft:
            return TableName.NFT
        if label in self.sft:
            return TableName.SFT
        return None

    def __contains__(self, label: int) -> bool:
        return self.lookup(label) is not None

    # --------------------------------------------------------- transitions

    def admit_suspicious(self, entry: SftEntry) -> None:
        """Start probing a new flow."""
        if entry.label in self.sft:
            raise ValueError(f"{entry.label} is already in the SFT")
        if entry.label in self.pdt:
            raise ValueError(f"{entry.label} is already condemned")
        self.sft[entry.label] = entry
        self.counters.sft_admissions += 1

    def promote_to_nice(self, label: int, now: float) -> None:
        """SFT -> NFT: the flow responded to the probe."""
        if self.sft.pop(label, None) is None:
            raise KeyError(f"{label} is not in the SFT")
        self.nft[label] = now
        self.counters.nft_admissions += 1

    def condemn(self, label: int, reason: str) -> None:
        """SFT (or nowhere) -> PDT: cut the flow permanently (a flow
        already condemned keeps its first reason)."""
        self.sft.pop(label, None)
        self.nft.pop(label, None)
        if label not in self.pdt:
            self.pdt[label] = reason
            self.counters.pdt_admissions += 1

    def demote_from_nice(self, label: int) -> None:
        """Remove an NFT verdict so the flow can be re-probed."""
        self.nft.pop(label, None)

    def flush(self) -> None:
        """Clear everything — Figure 2's "End dropping & flush all tables"."""
        self.sft.clear()
        self.nft.clear()
        self.pdt.clear()
        self.counters.flushes += 1

    # ------------------------------------------------------------ eviction

    def evict_oldest_sft(self) -> SftEntry | None:
        """Remove and return the longest-resident SFT entry (None if empty).

        Dicts preserve insertion order, so the first key is the entry
        admitted earliest.
        """
        for label in self.sft:
            entry = self.sft.pop(label)
            self.counters.sft_evictions += 1
            return entry
        return None

    def evict_oldest_pdt(self) -> int | None:
        """Remove the longest-condemned PDT entry; its label, or None."""
        for label in self.pdt:
            del self.pdt[label]
            self.counters.pdt_evictions += 1
            return label
        return None

    # ----------------------------------------------------------- inventory

    def occupancy(self) -> dict[str, int]:
        """Current table sizes."""
        return {"sft": len(self.sft), "nft": len(self.nft), "pdt": len(self.pdt)}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        occ = self.occupancy()
        return f"FlowTables(sft={occ['sft']}, nft={occ['nft']}, pdt={occ['pdt']})"
