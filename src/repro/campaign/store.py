"""The persistent, content-addressed campaign run store.

Layout on disk (schema 2 — everything human-readable JSON)::

    <root>/<campaign-name>/
        manifest.json                        # spec snapshot + schema version
        index.jsonl                          # run_id -> summary row (appended)
        runs/<hh>/<run_id>.json              # summary artifact (no series)
        runs/<hh>/<run_id>.series.json       # bandwidth-series sidecar
        runs/<hh>/<run_id>.series.json.gz    # ... gzip, behind a manifest flag
        leases/<run_id>.json                 # worker-pull claim (distributed)
        failed/<run_id>.json                 # retry/quarantine ledger

``<hh>`` is the first two hex digits of ``run_id``, so no directory ever
holds more than ~1/256 of the grid — a 100k-run campaign stays at a few
hundred entries per directory.  The bandwidth series lives in a sidecar
file, so summary-only readers (``campaign status``, ``campaign report``,
``read_run(load_series=False)``) parse only the small summary documents:
report cost scales with artifact *count*, never with series *length*.

``run_id`` is :meth:`ExperimentConfig.config_hash` — a truncated
SHA-256 over the config's canonical JSON — so the same configuration
always files under the same name, no matter which process, host, or
campaign produced it.  That single property buys everything else:

* **resume** — a run whose artifact exists is never re-executed;
* **extension** — adding seeds or axis values to the spec leaves
  existing artifacts valid and only the new hashes missing;
* **dedup** — every spec revision of a campaign reuses the artifacts
  instead of recomputing (one store = one artifact per distinct
  config, ever).

This is the only layout read or written.  A manifest, artifact or
sidecar whose ``"schema"`` is not :data:`STORE_SCHEMA`, and a flat
``runs/<run_id>.json`` left by a pre-shard writer, raise
:class:`StoreError` naming the file — never served, never skipped.

Artifacts are written atomically (unique temp file + fsync +
``os.replace``), so a campaign killed mid-write never leaves a torn
artifact behind — at worst the run is missing (or an orphan sidecar is
left for ``campaign gc``) and re-executes on resume.  Every field that
feeds reports is deterministic for a given config; wall-clock timing is
quarantined under the ``"timing"`` key, which readers ignore, keeping
resumed results bit-identical to uninterrupted ones.

Three optional structures ride next to the artifacts, all degrading
gracefully when absent or stale:

* ``index.jsonl`` — one summary row per artifact, appended (atomically,
  newline-framed) after each summary write, so ``status``/``report`` on
  a >10k-run grid parse one sequential file instead of one JSON
  document per artifact.  The index is a *cache*: a missing or torn row
  falls back to reading that run's artifact, and ``campaign gc
  --apply`` (:meth:`CampaignStore.rebuild_index`) regenerates the whole
  file.
* ``leases/<run_id>.json`` — worker-pull claims for distributed
  execution (see :mod:`repro.campaign.pool`).  A lease is advisory:
  it keeps two *live* workers off the same cell, but correctness never
  depends on it — duplicate executions write bit-identical artifacts
  (timing aside) and the atomic rename means exactly one wins whole.
* ``failed/<run_id>.json`` — the retry/quarantine ledger: per-cell
  attempt counts, exponential-backoff deadlines, and the last
  traceback.  A cell that exhausts its attempts is *quarantined* —
  skipped by workers, surfaced by ``status``/``workers``, and never
  silently dropped; ``--retry-failed`` clears the ledger.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import socket
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator

from repro.campaign.chaos import chaos_point

from repro.analysis.export import summary_from_dict, summary_to_dict
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult
from repro.metrics.rates import MetricsSummary
from repro.metrics.timeseries import BandwidthSeries

#: The one layout this code reads and writes: hash-prefix shards +
#: series sidecars.
STORE_SCHEMA = 2

#: The tail of every layout error: where an older store can still go.
_MIGRATE_HINT = (
    f"this code reads only schema {STORE_SCHEMA} — the last commit that "
    "can rewrite an older store is 46de839 (PR 22): run its "
    "`campaign migrate`, then read the store here"
)

#: Suffix of the series sidecar next to each summary artifact.
SERIES_SUFFIX = ".series.json"

#: Gzip-compressed sidecar variant (written behind the manifest's
#: ``compress_series`` flag; readers sniff magic bytes, not suffixes).
SERIES_GZ_SUFFIX = SERIES_SUFFIX + ".gz"

#: The append-only summary index next to the manifest.
INDEX_NAME = "index.jsonl"

#: Default worker-pull lease time-to-live: a lease whose heartbeat is
#: older than this is presumed dead and reclaimable.
DEFAULT_LEASE_TTL = 15.0

#: A heartbeat further than this in the *future* marks the lease stale
#: too: a clock that far ahead is broken, and reclaiming its cell risks
#: only duplicate work (artifacts are atomic and content-addressed),
#: never lost work — whereas honoring it could park the cell for hours.
MAX_FUTURE_SKEW = 300.0

#: Retry policy defaults for the failure ledger.
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_BACKOFF_BASE = 0.5
DEFAULT_BACKOFF_CAP = 60.0

_GZIP_MAGIC = b"\x1f\x8b"


def atomic_write_bytes(path: Path, data: bytes) -> Path:
    """Atomic byte write: unique temp file in the same directory,
    fsync, then rename.

    The temp name comes from :func:`tempfile.mkstemp`, so two
    processes filing the same ``run_id`` concurrently (two resumed
    campaigns, ``jobs=N`` workers on one store)
    each write their own file and the last rename wins whole — a
    fixed ``<path>.tmp`` name would interleave their writes into
    one file and rename a torn artifact into place.

    Every durable file under a campaign directory goes through this
    (or the store's JSON wrapper); ``repro lint``'s ``atomic-write``
    rule enforces that statically.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: Path, text: str) -> Path:
    """Atomic UTF-8 text write (see :func:`atomic_write_bytes`)."""
    return atomic_write_bytes(path, text.encode("utf-8"))


class StoreError(RuntimeError):
    """A store artifact that cannot be read back."""


@dataclass
class Lease:
    """One worker's claim on one plan cell (the ``leases/`` file).

    ``token`` is random per claim: it distinguishes two claims by the
    same worker name and is what :meth:`CampaignStore.refresh_lease` /
    :meth:`CampaignStore.release_lease` verify ownership against.
    """

    run_id: str
    worker: str
    token: str
    pid: int
    host: str
    acquired_at: float
    heartbeat_at: float
    ttl: float

    def expired(self, now: float | None = None) -> bool:
        """Dead-worker predicate: heartbeat too old — or absurdly ahead
        of our clock (see :data:`MAX_FUTURE_SKEW`)."""
        now = time.time() if now is None else now
        age = now - self.heartbeat_at
        return age > self.ttl or -age > max(self.ttl, MAX_FUTURE_SKEW)

    def to_payload(self) -> dict:
        return {
            "run_id": self.run_id,
            "worker": self.worker,
            "token": self.token,
            "pid": self.pid,
            "host": self.host,
            "acquired_at": self.acquired_at,
            "heartbeat_at": self.heartbeat_at,
            "ttl": self.ttl,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Lease":
        return cls(
            run_id=payload["run_id"],
            worker=payload["worker"],
            token=payload["token"],
            pid=int(payload["pid"]),
            host=payload["host"],
            acquired_at=float(payload["acquired_at"]),
            heartbeat_at=float(payload["heartbeat_at"]),
            ttl=float(payload["ttl"]),
        )


@dataclass
class FailureRecord:
    """One cell's retry/quarantine state (the ``failed/`` ledger).

    Never deleted implicitly: a successful execution clears its cell's
    record, ``--retry-failed`` clears them all, and everything else —
    including quarantine — stays on disk with the traceback attached,
    so a failed cell is always *visible*, never silently dropped.
    """

    run_id: str
    attempts: int
    max_attempts: int
    quarantined: bool
    next_retry_at: float
    worker: str
    error: str
    traceback: str
    updated_at: float

    def retryable(self, now: float | None = None) -> bool:
        """True when a worker may attempt this cell right now."""
        if self.quarantined:
            return False
        now = time.time() if now is None else now
        return now >= self.next_retry_at

    def to_payload(self) -> dict:
        return {
            "run_id": self.run_id,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "quarantined": self.quarantined,
            "next_retry_at": self.next_retry_at,
            "worker": self.worker,
            "error": self.error,
            "traceback": self.traceback,
            "updated_at": self.updated_at,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FailureRecord":
        return cls(
            run_id=payload["run_id"],
            attempts=int(payload["attempts"]),
            max_attempts=int(payload["max_attempts"]),
            quarantined=bool(payload["quarantined"]),
            next_retry_at=float(payload["next_retry_at"]),
            worker=payload.get("worker", ""),
            error=payload.get("error", ""),
            traceback=payload.get("traceback", ""),
            updated_at=float(payload.get("updated_at", 0.0)),
        )


@dataclass
class StoredRun:
    """One run artifact loaded back from disk."""

    run_id: str
    config: ExperimentConfig
    point: dict
    summary: MetricsSummary
    series: BandwidthSeries
    series_bin_width: float | None
    activation_time: float | None
    identified_atrs: set[str]
    true_atrs: set[str]
    events_executed: int
    wall_seconds: float

    @property
    def seed(self) -> int:
        """The run's seed (a plain config field, surfaced for grouping)."""
        return self.config.seed


@dataclass
class GCReport:
    """What :meth:`CampaignStore.gc` deleted (or would delete)."""

    store_dir: Path
    applied: bool = False
    #: Summary artifacts the current plan no longer references, plus
    #: their sidecars.
    unplanned: list[Path] = field(default_factory=list)
    #: Sidecars whose summary artifact is gone (lost to a crash between
    #: the sidecar write and the summary write, or to manual deletion).
    orphan_sidecars: list[Path] = field(default_factory=list)
    #: Leftover atomic-write temp files (a writer died mid-write).
    tmp_files: list[Path] = field(default_factory=list)
    #: Lease files whose worker died (expired heartbeat) or whose cell
    #: already has its artifact (crash between write and release).
    stale_leases: list[Path] = field(default_factory=list)
    #: Failure-ledger entries for cells that later succeeded (a timeout
    #: racing a completion) — the cell is done, the record is debris.
    resolved_failures: list[Path] = field(default_factory=list)

    @property
    def paths(self) -> list[Path]:
        """Every doomed path, deterministically ordered."""
        return sorted(
            self.unplanned + self.orphan_sidecars + self.tmp_files
            + self.stale_leases + self.resolved_failures
        )


class CampaignStore:
    """Artifact store for one campaign directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.runs_dir = self.directory / "runs"
        self.leases_dir = self.directory / "leases"
        self.failed_dir = self.directory / "failed"
        # Manifest-flag memo: None = not read yet.  Invalidated on
        # write_manifest; one store never flips the flag mid-campaign.
        self._compress_series: bool | None = None

    @property
    def name(self) -> str:
        """The campaign name (the directory's basename)."""
        return self.directory.name

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    @property
    def index_path(self) -> Path:
        return self.directory / INDEX_NAME

    def ensure(self) -> "CampaignStore":
        """Create the directory skeleton; idempotent."""
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        return self

    def exists(self) -> bool:
        """True once :meth:`ensure` (or a previous run) created the store."""
        return self.runs_dir.is_dir()

    # ----------------------------------------------------------- manifest

    def write_manifest(
        self,
        spec_dict: dict,
        series_bin_width: float | None = None,
        compress_series: bool | None = None,
    ) -> Path:
        """Snapshot the spec next to its artifacts (atomic).

        Passing ``series_bin_width=None`` means "no new claim", not
        "clear the pin": a width already recorded by
        :meth:`pin_series_bin_width` survives every re-snapshot, so a
        spec revision can never silently un-pin the store and let a
        later writer file mixed-resolution series.  ``compress_series``
        follows the same convention: ``None`` preserves whatever the
        manifest already records, ``True`` turns gzip sidecars on for
        every *future* series write (existing plain sidecars stay valid
        — readers sniff magic bytes, so one store can hold both).
        """
        if series_bin_width is None:
            series_bin_width = self.series_bin_width()
        if compress_series is None:
            compress_series = self.compress_series()
        payload = {"schema": STORE_SCHEMA, "spec": spec_dict}
        if series_bin_width is not None:
            payload["series_bin_width"] = series_bin_width
        if compress_series:
            payload["compress_series"] = True
        self._compress_series = bool(compress_series)
        return self._write_json(self.manifest_path, payload)

    def read_manifest(self) -> dict:
        """The spec snapshot last written (raises if never written)."""
        return self._read_manifest_payload()["spec"]

    def series_bin_width(self) -> float | None:
        """The bin width this store's artifacts were recorded at, or
        ``None`` when no manifest (or an older one) exists."""
        if not self.manifest_path.is_file():
            return None
        return self._read_manifest_payload().get("series_bin_width")

    def compress_series(self) -> bool:
        """True when the manifest directs series writes to ``.gz``
        sidecars.  Memoized per store instance (the flag never flips
        mid-campaign; :meth:`write_manifest` refreshes the memo)."""
        if self._compress_series is None:
            if not self.manifest_path.is_file():
                return False  # don't memoize: the manifest may appear
            self._compress_series = bool(
                self._read_manifest_payload().get("compress_series", False)
            )
        return self._compress_series

    def pin_series_bin_width(self, width: float) -> None:
        """Claim (or verify) the store-wide series resolution.

        Every parent goes through this (``prepare_store``) before its
        workers file artifacts, so one store can never hold series at
        mixed resolutions: the first records the width in the manifest
        and every later one must match it.
        """
        recorded = self.series_bin_width()
        if recorded is not None:
            if recorded != width:
                raise StoreError(
                    f"store {self.directory} records series at bin width "
                    f"{recorded}; writing at {width} would mix time "
                    "resolutions — use the recorded width or a fresh store"
                )
            return
        spec = (
            self.read_manifest() if self.manifest_path.is_file() else {}
        )
        self.write_manifest(spec, series_bin_width=width)

    def _read_manifest_payload(self) -> dict:
        payload = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        self._check_schema(payload, self.manifest_path)
        return payload

    # --------------------------------------------------------------- runs

    def run_path(self, run_id: str) -> Path:
        """Where the run's summary artifact lives: a pure function of
        ``run_id``, whether or not the file exists."""
        return self.runs_dir / run_id[:2] / f"{run_id}.json"

    def series_path(self, run_path: Path) -> Path:
        """The sidecar next to a summary artifact.

        Prefers whichever variant exists — plain first, then ``.gz`` —
        and falls back to the manifest's ``compress_series`` preference
        for new writes, so readers see both transparently and a store
        switched to compression keeps its old plain sidecars readable.
        """
        plain = run_path.with_name(run_path.stem + SERIES_SUFFIX)
        if plain.is_file():
            return plain
        gz = run_path.with_name(run_path.stem + SERIES_GZ_SUFFIX)
        if gz.is_file():
            return gz
        return gz if self.compress_series() else plain

    @staticmethod
    def _existing_sidecars(run_path: Path) -> list[Path]:
        """Every sidecar variant actually on disk for one artifact —
        both can exist after a store flips ``compress_series``."""
        variants = (
            run_path.with_name(run_path.stem + SERIES_SUFFIX),
            run_path.with_name(run_path.stem + SERIES_GZ_SUFFIX),
        )
        return [p for p in variants if p.is_file()]

    def has(self, run_id: str) -> bool:
        """True when the run's artifact exists (the resume predicate)."""
        return self.run_path(run_id).is_file()

    def _artifact_paths(self) -> Iterator[Path]:
        """Every summary artifact on disk, no sidecars.

        A summary at ``runs/`` top level is a pre-shard artifact this
        code would neither serve nor prune: it raises before anything
        is yielded, so no caller acts on a store it half sees.
        """
        if not self.runs_dir.is_dir():
            return
        shards = []
        for entry in self.runs_dir.iterdir():
            if entry.is_dir():
                shards.append(entry)
            elif entry.suffix == ".json" and not entry.name.endswith(
                SERIES_SUFFIX
            ):
                raise StoreError(
                    f"{entry}: flat artifact outside its runs/<hh>/ shard "
                    f"(the schema-1 layout); {_MIGRATE_HINT}"
                )
        for shard in shards:
            for path in shard.glob("*.json"):
                if not path.name.endswith(SERIES_SUFFIX):
                    yield path

    def run_ids(self) -> set[str]:
        """Hashes of every artifact on disk."""
        return {path.stem for path in self._artifact_paths()}

    def write_result(
        self,
        result: ExperimentResult,
        point: dict | None = None,
        series_bin_width: float | None = None,
    ) -> Path:
        """File one run's artifact under its config hash (atomic).

        The bandwidth series goes to the ``.series.json`` sidecar and
        the summary document to ``runs/<hh>/<run_id>.json`` — sidecar
        first, so a visible summary implies its series committed (a
        crash in between leaves only an orphan sidecar, which
        :meth:`gc` prunes and resume overwrites harmlessly).

        ``point`` is advisory provenance (which grid cell produced the
        artifact); query paths recompute cell membership from the
        current spec's plan, so an artifact written without a point
        aggregates correctly anyway.  ``series_bin_width`` records the
        resolution the bandwidth series was binned at.
        """
        run_id = result.config.config_hash()
        series = result.series
        path = self.run_path(run_id)
        payload = {
            "schema": STORE_SCHEMA,
            "run_id": run_id,
            "config": result.config.to_dict(),
            "point": dict(point or {}),
            "summary": summary_to_dict(result.summary),
            "activation_time": result.activation_time,
            "identified_atrs": sorted(result.identified_atrs),
            "true_atrs": sorted(result.true_atrs),
            "events_executed": result.events_executed,
            "series_bin_width": series_bin_width,
            # Non-deterministic measurements live here and ONLY here;
            # reports never read this key.
            "timing": {"wall_seconds": result.wall_seconds},
        }
        self._write_json(
            self.series_path(path),
            {
                "schema": STORE_SCHEMA,
                "run_id": run_id,
                "series": {
                    "times": series.times,
                    "total_kbps": series.total_kbps,
                    "attack_kbps": series.attack_kbps,
                    "legit_kbps": series.legit_kbps,
                },
            },
        )
        chaos_point("write")  # crash harness: sidecar landed, summary not
        self._write_json(path, payload)
        chaos_point("index")  # crash harness: summary landed, index row not
        self.append_index_row(payload)
        # A successful write settles any past failed attempts: the cell
        # is done, its ledger record is debris.
        self.clear_failure(run_id)
        return path

    def read_run(self, run_id: str, load_series: bool = True) -> StoredRun:
        """Load one artifact back into a :class:`StoredRun`.

        ``load_series=False`` skips the series: the sidecar is never
        opened, so summary-only consumers like
        :func:`repro.campaign.query.campaign_report` pay per artifact,
        not per series sample.
        """
        path = self.run_path(run_id)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise StoreError(
                f"no artifact for run {run_id!r} in {self.runs_dir}"
            ) from None
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt artifact {path}: {exc}") from exc
        self._check_schema(payload, path)
        config = ExperimentConfig.from_dict(payload["config"])
        if config.config_hash() != payload["run_id"]:
            raise StoreError(
                f"artifact {path} config no longer hashes to its run_id "
                "(edited by hand, or written by an incompatible version?)"
            )
        if load_series:
            series_payload = self._read_series_payload(path, run_id)
            series = BandwidthSeries(
                times=list(series_payload["times"]),
                total_kbps=list(series_payload["total_kbps"]),
                attack_kbps=list(series_payload["attack_kbps"]),
                legit_kbps=list(series_payload["legit_kbps"]),
            )
        else:
            series = BandwidthSeries(
                times=[], total_kbps=[], attack_kbps=[], legit_kbps=[]
            )
        return StoredRun(
            run_id=payload["run_id"],
            config=config,
            point=dict(payload["point"]),
            summary=summary_from_dict(payload["summary"]),
            series=series,
            series_bin_width=payload.get("series_bin_width"),
            activation_time=payload["activation_time"],
            identified_atrs=set(payload["identified_atrs"]),
            true_atrs=set(payload["true_atrs"]),
            events_executed=payload["events_executed"],
            wall_seconds=payload["timing"]["wall_seconds"],
        )

    def _read_series_payload(self, run_path: Path, run_id: str) -> dict:
        """The sidecar's ``"series"`` table for one summary artifact.

        Compression is sniffed from the gzip magic bytes, never the
        suffix, so a renamed ``.gz`` sidecar (or a plain one with a
        ``.gz`` name) still reads.
        """
        sidecar = self.series_path(run_path)
        try:
            with _open_text_sniffed(sidecar) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise StoreError(
                f"artifact {run_path} has no series sidecar {sidecar.name} "
                "(crash between writes? resume re-runs it, or gc prunes it)"
            ) from None
        except (json.JSONDecodeError, EOFError, gzip.BadGzipFile) as exc:
            raise StoreError(f"corrupt sidecar {sidecar}: {exc}") from exc
        self._check_schema(payload, sidecar)
        if payload.get("run_id") != run_id:
            raise StoreError(
                f"sidecar {sidecar} belongs to run {payload.get('run_id')!r}"
                f", not {run_id!r}"
            )
        return payload["series"]

    def iter_runs(self, load_series: bool = True) -> Iterator[StoredRun]:
        """Every artifact, in run-id order (deterministic).

        ``load_series=False`` skips the series exactly like
        :meth:`read_run`: summary-only scans never open a sidecar.
        """
        for run_id in sorted(self.run_ids()):
            yield self.read_run(run_id, load_series=load_series)

    # --------------------------------------------------------------- index

    @staticmethod
    def _index_row(payload: dict, artifact_bytes: int | None = None) -> dict:
        """The summary-only subset of an artifact that reports consume.

        ``artifact_bytes`` records the summary file's on-disk size so
        readers can cheaply (one stat, no parse) refuse rows whose
        artifact has since been replaced, truncated, or hand-edited —
        see :meth:`index_row_fresh`.
        """
        return {
            "run_id": payload["run_id"],
            "artifact_bytes": artifact_bytes,
            "summary": payload["summary"],
            "activation_time": payload["activation_time"],
            "identified_atrs": payload["identified_atrs"],
            "true_atrs": payload["true_atrs"],
            "events_executed": payload["events_executed"],
            "series_bin_width": payload.get("series_bin_width"),
            "wall_seconds": payload.get("timing", {}).get(
                "wall_seconds", 0.0
            ),
        }

    def append_index_row(
        self, payload: dict, artifact_bytes: int | None = None
    ) -> None:
        """File one artifact's summary row in ``index.jsonl``.

        One ``O_APPEND`` write, *led* by a newline: if the previous
        appender died mid-write, the leading newline terminates its
        torn fragment so only that one row is lost to the parse-and-
        skip reader — our row starts clean.  The index is advisory:
        a crash between the summary write and this append just means
        the row is missing and readers fall back to the artifact.
        """
        if artifact_bytes is None:
            try:
                artifact_bytes = self.run_path(payload["run_id"]).stat().st_size
            except (OSError, KeyError):
                artifact_bytes = None
        row = self._index_row(payload, artifact_bytes=artifact_bytes)
        line = "\n" + json.dumps(row, sort_keys=True,
                                 separators=(",", ":")) + "\n"
        self.directory.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            self.index_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    def read_index(self) -> dict[str, dict]:
        """``run_id -> summary row`` from ``index.jsonl``, or ``{}``.

        Tolerant by design: blank lines and unparseable (torn) lines
        are skipped — the artifact is the truth, the index only a way
        to avoid opening 10k files — and duplicate rows resolve to the
        last appended.  Callers must still intersect with
        :meth:`run_ids`: a row may outlive its artifact (gc, manual
        deletion) until :meth:`rebuild_index` runs.
        """
        try:
            text = self.index_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return {}
        rows: dict[str, dict] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn append from a crashed writer
            run_id = row.get("run_id") if isinstance(row, dict) else None
            if isinstance(run_id, str) and run_id:
                rows[run_id] = row
        return rows

    def rebuild_index(self) -> int:
        """Regenerate ``index.jsonl`` from the artifacts (atomic).

        Drops stale, torn and duplicate rows; returns the row count.
        Run by every ``campaign gc --apply``.
        """
        rows: dict[str, dict] = {}
        for path in sorted(self._artifact_paths()):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                continue  # read_run's problem, not the index's
            run_id = payload.get("run_id")
            if isinstance(run_id, str) and run_id:
                rows[run_id] = self._index_row(
                    payload, artifact_bytes=path.stat().st_size
                )
        text = "".join(
            json.dumps(rows[run_id], sort_keys=True, separators=(",", ":"))
            + "\n"
            for run_id in sorted(rows)
        )
        self._write_atomic(self.index_path, text.encode("utf-8"))
        return len(rows)

    def index_row_fresh(self, row: dict) -> bool:
        """True when the row's recorded artifact size matches the disk.

        The cheap (one stat, no parse) staleness check summary readers
        apply before trusting a row: a replaced, truncated, or
        hand-edited artifact changes size, so the reader falls back to
        :meth:`read_run`, which surfaces corruption instead of letting
        the index mask it.  Rows without a recorded size (older index
        versions) are never trusted — ``campaign gc --apply`` rebuilds
        the index and records sizes.
        """
        expected = row.get("artifact_bytes")
        if not isinstance(expected, int):
            return False
        try:
            return self.run_path(row["run_id"]).stat().st_size == expected
        except (OSError, KeyError, TypeError):
            return False

    def run_from_index_row(
        self, row: dict, config: ExperimentConfig, point: dict | None = None
    ) -> StoredRun:
        """Rehydrate a summary-only :class:`StoredRun` from one index row.

        The caller supplies the config (``run_id`` is its hash, so the
        campaign plan always has it); the series stays empty exactly
        like ``read_run(load_series=False)``.
        """
        return StoredRun(
            run_id=row["run_id"],
            config=config,
            point=dict(point or {}),
            summary=summary_from_dict(row["summary"]),
            series=BandwidthSeries(
                times=[], total_kbps=[], attack_kbps=[], legit_kbps=[]
            ),
            series_bin_width=row.get("series_bin_width"),
            activation_time=row["activation_time"],
            identified_atrs=set(row["identified_atrs"]),
            true_atrs=set(row["true_atrs"]),
            events_executed=row["events_executed"],
            wall_seconds=row.get("wall_seconds", 0.0),
        )

    # -------------------------------------------------------------- leases

    def lease_path(self, run_id: str) -> Path:
        return self.leases_dir / f"{run_id}.json"

    def read_lease(self, run_id: str) -> Lease | None:
        """The cell's lease, or ``None`` when absent or unreadable.

        Lease writes are atomic, so an unreadable lease can only come
        from hand edits or version skew — either way it is treated as
        stale (claimable), which risks duplicate work, never lost work.
        """
        try:
            payload = json.loads(
                self.lease_path(run_id).read_text(encoding="utf-8")
            )
            return Lease.from_payload(payload)
        except (FileNotFoundError, json.JSONDecodeError, KeyError,
                TypeError, ValueError):
            return None

    def try_claim(
        self,
        run_id: str,
        worker: str,
        ttl: float = DEFAULT_LEASE_TTL,
        now: float | None = None,
    ) -> Lease | None:
        """Claim one cell for ``worker``; ``None`` when someone live
        holds it (or we lost the race).

        Fresh claims hard-link a fully written temp file into place —
        ``link(2)`` fails atomically when the name exists, so two fresh
        claimants can never both win.  Taking over an *expired* lease
        uses replace-then-read-back: in a tight race both takers can
        believe they won and the cell runs twice, which is explicitly
        safe — runs are deterministic and artifact writes atomic, so
        exactly one identical artifact lands.  Leases only keep live
        workers efficient; they are never a correctness mechanism.
        """
        now = time.time() if now is None else now
        existing = self.read_lease(run_id)
        if existing is not None and not existing.expired(now):
            return None
        lease = Lease(
            run_id=run_id,
            worker=worker,
            token=os.urandom(8).hex(),
            pid=os.getpid(),
            host=socket.gethostname(),
            acquired_at=now,
            heartbeat_at=now,
            ttl=float(ttl),
        )
        path = self.lease_path(run_id)
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        if existing is None and not path.exists():
            fd, tmp_name = tempfile.mkstemp(
                dir=self.leases_dir, prefix=path.name + ".", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as f:
                    json.dump(lease.to_payload(), f, sort_keys=True)
                    f.flush()
                    os.fsync(f.fileno())
                try:
                    os.link(tmp_name, path)
                except FileExistsError:
                    return None  # raced: another fresh claimant won
            finally:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            return lease
        # Expired/corrupt lease: replace, then read back to learn who won.
        self._write_json(path, lease.to_payload())
        winner = self.read_lease(run_id)
        if winner is not None and winner.token == lease.token:
            return lease
        return None

    def refresh_lease(self, lease: Lease, now: float | None = None) -> bool:
        """Re-stamp the heartbeat; ``False`` when the lease was lost.

        Losing a lease (reclaimed after our heartbeat stalled past the
        TTL) is not fatal: the holder may finish and file its artifact
        anyway — but it should know the cell may now run twice.
        """
        current = self.read_lease(lease.run_id)
        if current is None or current.token != lease.token:
            return False
        lease.heartbeat_at = time.time() if now is None else now
        self._write_json(self.lease_path(lease.run_id), lease.to_payload())
        return True

    def release_lease(self, lease: Lease) -> None:
        """Drop the claim — only if still ours; idempotent."""
        current = self.read_lease(lease.run_id)
        if current is not None and current.token == lease.token:
            self.lease_path(lease.run_id).unlink(missing_ok=True)

    def iter_leases(self) -> list[Lease]:
        """Every lease on disk, run-id order (``campaign workers``)."""
        leases = []
        if self.leases_dir.is_dir():
            for path in sorted(self.leases_dir.glob("*.json")):
                lease = self.read_lease(path.stem)
                if lease is not None:
                    leases.append(lease)
        return leases

    # ------------------------------------------------------------ failures

    def failure_path(self, run_id: str) -> Path:
        return self.failed_dir / f"{run_id}.json"

    def read_failure(self, run_id: str) -> FailureRecord | None:
        try:
            payload = json.loads(
                self.failure_path(run_id).read_text(encoding="utf-8")
            )
            return FailureRecord.from_payload(payload)
        except (FileNotFoundError, json.JSONDecodeError, KeyError,
                TypeError, ValueError):
            return None

    def record_failure(
        self,
        run_id: str,
        worker: str,
        error: str,
        traceback: str = "",
        *,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        now: float | None = None,
    ) -> FailureRecord:
        """Charge one failed attempt against a cell (atomic write).

        The retry deadline backs off exponentially
        (``backoff_base * 2**(attempts-1)``, capped) and the cell is
        quarantined — retryable by nobody until the ledger is cleared —
        once ``attempts`` reaches ``max_attempts``.  The traceback
        travels with the record so ``campaign workers``/``status`` can
        show *why*, not just *that*, a cell failed.
        """
        now = time.time() if now is None else now
        previous = self.read_failure(run_id)
        attempts = (previous.attempts if previous is not None else 0) + 1
        delay = min(backoff_cap, backoff_base * (2.0 ** (attempts - 1)))
        record = FailureRecord(
            run_id=run_id,
            attempts=attempts,
            max_attempts=int(max_attempts),
            quarantined=attempts >= int(max_attempts),
            next_retry_at=now + delay,
            worker=worker,
            error=str(error),
            traceback=traceback,
            updated_at=now,
        )
        self._write_json(self.failure_path(run_id), record.to_payload())
        return record

    def clear_failure(self, run_id: str) -> None:
        """Forget a cell's attempts (run on every successful write)."""
        self.failure_path(run_id).unlink(missing_ok=True)

    def iter_failures(self) -> list[FailureRecord]:
        """Every ledger record, run-id order."""
        records = []
        if self.failed_dir.is_dir():
            for path in sorted(self.failed_dir.glob("*.json")):
                record = self.read_failure(path.stem)
                if record is not None:
                    records.append(record)
        return records

    def quarantined_ids(self) -> set[str]:
        """Cells no worker will touch until ``--retry-failed``."""
        return {
            record.run_id
            for record in self.iter_failures()
            if record.quarantined
        }

    def clear_failures(self) -> int:
        """Reset the whole ledger (``--retry-failed``); returns count."""
        records = self.iter_failures()
        for record in records:
            self.clear_failure(record.run_id)
        return len(records)

    # -------------------------------------------------------- maintenance

    def gc(
        self,
        planned_ids: set[str],
        apply: bool = False,
        min_debris_age_seconds: float = 3600.0,
    ) -> GCReport:
        """Prune what the current plan no longer references.

        Five categories: summary artifacts (plus their sidecars) whose
        run_id is not in ``planned_ids``; orphaned sidecars with no
        summary artifact; leftover ``*.tmp`` files from writers that
        died mid-write; stale leases (expired heartbeat, or the cell's
        artifact already exists — a worker that died between its
        artifact write and its release); and failure-ledger records for
        cells that later succeeded.  The manifest is never touched, and
        quarantined records for cells *without* artifacts always
        survive — gc never silently drops a failure.  With
        ``apply=False`` (the default) nothing is deleted — the report
        lists what *would* go; with ``apply=True`` an existing
        ``index.jsonl`` is also rebuilt from the artifacts.

        Orphan sidecars and temp files younger than
        ``min_debris_age_seconds`` are spared: a *live* writer holds an
        in-flight mkstemp file (and briefly a summary-less sidecar)
        that looks exactly like crash debris, and unlinking it would
        fail that writer's rename mid-campaign.  An hour cleanly
        separates dead writers from running ones; unplanned artifacts
        carry no such race (plan membership is deterministic) and are
        pruned regardless of age.
        """
        report = GCReport(store_dir=self.directory, applied=apply)
        cutoff = time.time() - min_debris_age_seconds

        def settled(path: Path) -> bool:
            try:
                return path.stat().st_mtime < cutoff
            except OSError:  # vanished mid-scan: a writer renamed it
                return False

        for path in self._artifact_paths():
            if path.stem not in planned_ids:
                report.unplanned.append(path)
                report.unplanned.extend(self._existing_sidecars(path))
        if self.runs_dir.is_dir():
            for suffix in (SERIES_GZ_SUFFIX, SERIES_SUFFIX):
                for pattern in (f"*{suffix}", f"*/*{suffix}"):
                    for sidecar in self.runs_dir.glob(pattern):
                        stem = sidecar.name[: -len(suffix)]
                        if not sidecar.with_name(f"{stem}.json").is_file() \
                                and settled(sidecar):
                            report.orphan_sidecars.append(sidecar)
            for pattern in ("*.tmp", "*/*.tmp"):
                report.tmp_files.extend(
                    p for p in self.runs_dir.glob(pattern) if settled(p)
                )
        for extra_dir in (self.directory, self.leases_dir, self.failed_dir):
            if extra_dir.is_dir():
                report.tmp_files.extend(
                    p for p in extra_dir.glob("*.tmp") if settled(p)
                )
        for lease in self.iter_leases():
            if lease.expired() or self.has(lease.run_id):
                report.stale_leases.append(self.lease_path(lease.run_id))
        for record in self.iter_failures():
            if self.has(record.run_id):
                report.resolved_failures.append(
                    self.failure_path(record.run_id)
                )
        if apply:
            for path in report.paths:
                path.unlink(missing_ok=True)
            for shard in self.runs_dir.glob("*/"):
                try:  # drop shard dirs emptied by the pruning
                    shard.rmdir()
                except OSError:
                    pass
            if self.index_path.is_file():
                self.rebuild_index()  # drop pruned, stale and torn rows
        return report

    # ------------------------------------------------------------ helpers

    def _write_json(self, path: Path, payload: dict) -> Path:
        """Atomic JSON write; gzip-compressed when ``path`` ends ``.gz``.

        ``mtime=0`` keeps the gzip header deterministic: the same
        payload produces the same bytes no matter when — or on which
        worker — it was written, which is what lets chaos tests byte-
        diff compressed stores against serial runs.
        """
        data = (
            json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
            + "\n"
        ).encode("utf-8")
        if path.name.endswith(".gz"):
            buf = io.BytesIO()
            with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
                gz.write(data)
            data = buf.getvalue()
        return self._write_atomic(path, data)

    def _write_atomic(self, path: Path, data: bytes) -> Path:
        """Atomic byte write (see :func:`atomic_write_bytes`)."""
        return atomic_write_bytes(path, data)

    @staticmethod
    def _check_schema(payload: dict, path: Path) -> None:
        schema = payload.get("schema")
        if schema != STORE_SCHEMA:
            raise StoreError(
                f"{path}: store schema {schema!r}; {_MIGRATE_HINT}"
            )


def _open_text_sniffed(path: Path) -> IO[str]:
    """A text handle over ``path``, gunzipping when the first two bytes
    are the gzip magic — the suffix is never consulted, mirroring the
    flight recorder's reader, so renamed sidecars still load.
    """
    handle = open(path, "rb")
    try:
        magic = handle.read(len(_GZIP_MAGIC))
        handle.seek(0)
        if magic == _GZIP_MAGIC:
            return io.TextIOWrapper(
                gzip.GzipFile(fileobj=handle, mode="rb"), encoding="utf-8"
            )
        return io.TextIOWrapper(handle, encoding="utf-8")
    except BaseException:
        handle.close()
        raise
