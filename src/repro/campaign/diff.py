"""Cell-by-cell comparison of two campaign stores: ``campaign diff``.

The chaos harness's core invariant — any interleaving of worker deaths
converges, after resume, to the same bytes a serial run produces —
needs a checker, and CI needs it to exit nonzero.  :func:`diff_stores`
compares two store directories **by run_id** (content-addressed, so the
same cell files under the same name in both):

* cells present in one store and not the other (``missing`` / ``extra``);
* for common cells, every report-visible artifact field — the summary
  metrics, activation time, identified/true ATR sets, event counts,
  series bin width — with numeric leaves compared under an absolute
  ``tolerance`` (default 0.0: bit-exact, the determinism contract).

Ignored by design: ``timing`` (wall clock is quarantined there exactly
so stores stay comparable), ``point`` (advisory provenance — a cache
write and a campaign write of the same config must compare equal),
``config`` (equal run_ids imply equal configs) and ``schema`` (the
store's readers check it; it is not a result).
Series samples are *not* compared — reports never read them; byte-diff
the sidecars directly if that level of paranoia is needed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.store import CampaignStore, StoreError

#: Artifact keys that never participate in the comparison.
IGNORED_KEYS = frozenset({"schema", "timing", "point", "config", "run_id"})


@dataclass
class CellDelta:
    """One field of one common cell that differs."""

    run_id: str
    field: str
    a: object
    b: object


@dataclass
class StoreDiff:
    """What :func:`diff_stores` found."""

    dir_a: Path
    dir_b: Path
    compared: int = 0  # common cells compared field-by-field
    #: run_ids in A with no artifact in B, and vice versa.
    missing_in_b: list[str] = field(default_factory=list)
    missing_in_a: list[str] = field(default_factory=list)
    differing: list[CellDelta] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not (
            self.missing_in_a or self.missing_in_b or self.differing
        )


def diff_stores(
    dir_a, dir_b, tolerance: float = 0.0
) -> StoreDiff:
    """Compare every cell of two stores; see the module docstring."""
    store_a, store_b = CampaignStore(dir_a), CampaignStore(dir_b)
    for store in (store_a, store_b):
        if not store.exists():
            raise StoreError(f"no campaign store at {store.directory}")
    ids_a, ids_b = store_a.run_ids(), store_b.run_ids()
    diff = StoreDiff(dir_a=store_a.directory, dir_b=store_b.directory)
    diff.missing_in_b = sorted(ids_a - ids_b)
    diff.missing_in_a = sorted(ids_b - ids_a)
    for run_id in sorted(ids_a & ids_b):
        flat_a = _flatten(_comparable(store_a, run_id))
        flat_b = _flatten(_comparable(store_b, run_id))
        for key in sorted(flat_a.keys() | flat_b.keys()):
            in_a, in_b = key in flat_a, key in flat_b
            if not (in_a and in_b):
                diff.differing.append(CellDelta(
                    run_id, key,
                    flat_a.get(key, "<absent>"),
                    flat_b.get(key, "<absent>"),
                ))
                continue
            va, vb = flat_a[key], flat_b[key]
            if _is_number(va) and _is_number(vb):
                if abs(va - vb) > tolerance:
                    diff.differing.append(CellDelta(run_id, key, va, vb))
            elif va != vb:
                diff.differing.append(CellDelta(run_id, key, va, vb))
        diff.compared += 1
    return diff


def _comparable(store: CampaignStore, run_id: str) -> dict:
    path = store.run_path(run_id)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StoreError(f"corrupt artifact {path}: {exc}") from exc
    return {k: v for k, v in payload.items() if k not in IGNORED_KEYS}


def _flatten(value, prefix: str = "", out: dict | None = None) -> dict:
    """``{"summary": {"alpha": 1}} -> {"summary.alpha": 1}`` (leaves only).

    Lists are leaves (artifact lists — ATR names — are already sorted
    by the writer, so direct equality is the right comparison).
    """
    if out is None:
        out = {}
    if isinstance(value, dict):
        for key in value:
            _flatten(value[key], f"{prefix}.{key}" if prefix else key, out)
    else:
        out[prefix] = value
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
