"""Flight recorder: JSONL record/replay for the event bus.

:class:`JsonlSink` subscribes to an :class:`~repro.obs.bus.EventBus`
like any other sink and writes every event as one JSON line —
:func:`repro.obs.events.encode_line`, the same bytes the serve layer
streams over SSE.  The first line of every recording is a *header*
carrying the schema version and run metadata, so a reader can refuse
files it does not understand before parsing a single event.

Paths ending in ``.gz`` are gzip-compressed transparently on write;
readers do not trust the suffix and sniff the two gzip magic bytes
instead, so renamed files still open.  The deflate, the CRC and the
file write run on the sink's own writer thread (all three release the
GIL), so a recorded run overlaps them with the simulation on a second
core; the bytes on disk are those a synchronous write would leave.

:func:`open_recording` gives the header plus a typed-event iterator
(via :func:`repro.obs.events.event_from_dict`), which is everything
``repro replay`` needs to feed a dead run back through the same broker
that serves live ones.  Events of unknown kind — a recording written by
a newer schema revision — are counted and skipped, not fatal.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import queue
import threading
from typing import IO, Iterator

from repro.obs.bus import BATCH_EVENTS
from repro.obs.events import MetricEvent, encode_line, event_from_dict

#: Bumped when the header shape or event envelope changes incompatibly.
SCHEMA_VERSION = 1

#: The ``schema`` string stamped into (and demanded of) every header.
SCHEMA_NAME = "repro.obs.recording"

_GZIP_MAGIC = b"\x1f\x8b"


class RecordingError(ValueError):
    """The file is not a readable repro recording."""


class JsonlSink:
    """Record the full typed event stream to a (gzip) JSONL file.

    Parameters
    ----------
    path:
        Output file; a ``.gz`` suffix selects gzip compression.
        Parent directories are created.
    metadata:
        JSON-serializable run metadata for the header line (scenario
        name, argv, host — whatever the caller wants future readers to
        see without scanning events).

    The sink is thread-safe (campaign demux threads may emit
    concurrently) and holds fewer than ``BATCH_EVENTS`` encoded lines
    between hand-offs — none between a run's full batches.  Each full
    batch is joined and handed to the sink's one writer thread through a
    one-batch queue; the writer makes the writes in hand-off order.  A
    write that fails there loses its batch (never retried) and is raised
    again, the same exception, from the next ``emit``, ``emit_many`` or
    ``close``.  Call :meth:`close` (or use the sink as a context manager)
    to write the tail and stop the writer.  ``emit`` after ``close`` is a
    no-op.
    """

    def __init__(self, path: str, metadata: dict | None = None) -> None:
        self.path = str(path)
        self.events_written = 0
        header = {
            "schema": SCHEMA_NAME,
            "version": SCHEMA_VERSION,
            "metadata": metadata or {},
        }
        self._lines = [json.dumps(header, separators=(",", ":")) + "\n"]
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if self.path.endswith(".gz"):
            # Level 6 (zlib's default), not gzip.open's 9: on an event
            # stream 9 buys 6% smaller files for twice the deflate time.
            self._file: IO[bytes] | None = gzip.open(
                self.path, "wb", compresslevel=6
            )
        else:
            self._file = open(self.path, "wb")
        self._lock = threading.Lock()
        # One batch waits while the writer writes the one before it: the
        # emitter blocks on a third, so at most two are ever in flight.
        self._batches: queue.Queue[bytes | None] = queue.Queue(maxsize=1)
        self._errors: list[BaseException] = []
        self._writer = threading.Thread(
            target=self._write_batches, name="jsonl-writer", daemon=True
        )
        self._writer.start()

    def emit(self, event: MetricEvent) -> None:
        """Append one event as a JSON line."""
        self._append([encode_line(event)])

    def emit_many(self, events: list[MetricEvent]) -> None:
        """Append a batch of events, one JSON line each."""
        self._append([encode_line(event) for event in events])

    def _append(self, encoded: list[str]) -> None:
        with self._lock:
            if self._file is None:
                return
            lines = self._lines
            lines += encoded
            self.events_written += len(encoded)
            if len(lines) >= BATCH_EVENTS:
                data = "".join(lines).encode("utf-8")
                lines.clear()
                self._batches.put(data)
            self._raise_failed_write()

    def _write_batches(self) -> None:
        """The writer thread: write each handed-off batch, in order."""
        batches = self._batches
        while True:
            data = batches.get()
            if data is None:
                return
            try:
                # Looked up per write, not bound once: whoever holds the
                # sink may replace its file.
                self._file.write(data)
            except BaseException as exc:
                # A failed write (ENOSPC, EIO) loses its batch: kept, it
                # would be written again, and again, with every later one.
                self._errors.append(exc)
            batches.task_done()  # what ``batches.join()`` waits for

    def _raise_failed_write(self) -> None:
        if self._errors:
            raise self._errors.pop(0)

    def close(self) -> None:
        """Write the tail, stop the writer and close the file (idempotent)."""
        with self._lock:
            file = self._file
            if file is None:
                return
            try:
                self._batches.put("".join(self._lines).encode("utf-8"))
                self._lines.clear()
                self._batches.put(None)
                self._writer.join()
            finally:
                self._file = None
                file.close()
            self._raise_failed_write()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Recording:
    """A validated recording: its header plus a typed-event iterator."""

    def __init__(self, path: str, header: dict) -> None:
        self.path = str(path)
        self.header = header
        #: Lines whose ``kind`` this build does not know (newer schema
        #: revision); updated as :meth:`events` is consumed.
        self.unknown_kinds = 0

    @property
    def metadata(self) -> dict:
        """The run metadata stamped at record time."""
        return self.header.get("metadata", {})

    def events(self) -> Iterator[MetricEvent]:
        """Yield every event in recorded order, skipping unknown kinds.

        Re-opens the file, so it can be iterated more than once.
        """
        with _open_text(self.path) as handle:
            try:
                handle.readline()  # header, already validated
                for lineno, line in enumerate(handle, start=2):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise RecordingError(
                            f"{self.path}:{lineno}: corrupt event line: "
                            f"{exc}"
                        ) from exc
                    event = event_from_dict(payload)
                    if event is None:
                        self.unknown_kinds += 1
                        continue
                    yield event
            except EOFError as exc:
                # A gzip stream cut off mid-member: the recorder died
                # (or is still running) before closing the file.
                raise RecordingError(
                    f"{self.path}: truncated recording: {exc}"
                ) from exc


def open_recording(path: str) -> Recording:
    """Validate ``path``'s header and return the :class:`Recording`.

    Raises :class:`RecordingError` when the file is missing a header,
    carries a different schema name, or a newer major version.
    """
    try:
        with _open_text(path) as handle:
            first = handle.readline()
    except EOFError as exc:
        raise RecordingError(
            f"{path}: truncated recording: {exc}"
        ) from exc
    if not first.strip():
        raise RecordingError(f"{path}: empty file, no recording header")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise RecordingError(
            f"{path}: first line is not a JSON recording header: {exc}"
        ) from exc
    if not isinstance(header, dict) or header.get("schema") != SCHEMA_NAME:
        raise RecordingError(
            f"{path}: not a {SCHEMA_NAME} recording "
            f"(schema={header.get('schema')!r})"
            if isinstance(header, dict)
            else f"{path}: recording header must be a JSON object"
        )
    version = header.get("version")
    if not isinstance(version, int) or version > SCHEMA_VERSION:
        raise RecordingError(
            f"{path}: recording schema version {version!r} is newer than "
            f"this build understands (max {SCHEMA_VERSION})"
        )
    return Recording(path, header)


def _open_text(path: str) -> IO[str]:
    """Open plain or gzip JSONL for reading, sniffing the magic bytes."""
    raw = open(path, "rb")
    try:
        magic = raw.read(2)
        raw.seek(0)
        if magic == _GZIP_MAGIC:
            return io.TextIOWrapper(
                gzip.GzipFile(fileobj=raw, mode="rb"), encoding="utf-8"
            )
        return io.TextIOWrapper(raw, encoding="utf-8")
    except Exception:
        raw.close()
        raise
