"""Flight recorder: header schema, round-trips, replay identity."""

import dataclasses
import gzip
import io
import json
import random
import sys
import threading

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs import BufferedSink, EventBus, LiveMetrics
from repro.obs.bus import BATCH_EVENTS as BATCH_LINES
from repro.obs.events import (
    DefenseDecision,
    RunStarted,
    Verdict,
    VictimArrival,
    encode_line,
    event_from_dict,
)
from repro.obs.recorder import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    JsonlSink,
    RecordingError,
    open_recording,
    recorded,
)

TINY = dict(total_flows=8, n_routers=6, duration=1.4, topology="star")


def _record(path, events, metadata=None):
    with JsonlSink(str(path), metadata=metadata) as sink:
        for event in events:
            sink.emit(event)
    return sink


SAMPLE_EVENTS = [
    RunStarted(time=0.0, run_id="abc", seed=3, scenario="s", duration=1.0,
               engine="compiled"),
    VictimArrival(time=0.1, size=1000, is_attack=False),
    DefenseDecision(time=0.2, action="drop", reason="probe", truth="attack",
                    flow=42, atr="ingress1"),
    Verdict(time=0.3, label=42, verdict="cut", truth="attack", atr="ingress1"),
]


class TestJsonlSink:
    def test_header_is_first_line_with_schema_and_metadata(self, tmp_path):
        path = tmp_path / "r.jsonl"
        _record(path, [], metadata={"scenario": "x"})
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == SCHEMA_NAME
        assert header["version"] == SCHEMA_VERSION
        assert header["metadata"] == {"scenario": "x"}

    def test_events_round_trip_typed(self, tmp_path):
        path = tmp_path / "r.jsonl"
        _record(path, SAMPLE_EVENTS)
        back = list(open_recording(str(path)).events())
        assert back == SAMPLE_EVENTS

    def test_gz_suffix_compresses(self, tmp_path):
        path = tmp_path / "r.jsonl.gz"
        _record(path, SAMPLE_EVENTS)
        with gzip.open(path, "rt") as f:
            assert json.loads(f.readline())["schema"] == SCHEMA_NAME
        assert list(open_recording(str(path)).events()) == SAMPLE_EVENTS

    def test_reader_sniffs_gzip_regardless_of_suffix(self, tmp_path):
        """Detection is by magic bytes, not filename."""
        path = tmp_path / "r.jsonl.gz"
        sink = _record(path, SAMPLE_EVENTS)
        renamed = tmp_path / "renamed.dat"
        path.rename(renamed)
        assert list(open_recording(str(renamed)).events()) == SAMPLE_EVENTS
        assert sink.events_written == len(SAMPLE_EVENTS)

    def test_parent_directories_are_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "r.jsonl"
        _record(path, SAMPLE_EVENTS[:1])
        assert path.exists()

    def test_close_is_idempotent(self, tmp_path):
        sink = _record(tmp_path / "r.jsonl", [])
        sink.close()
        sink.close()

    @pytest.mark.parametrize("name", ["r.jsonl", "r.jsonl.gz"])
    def test_emit_after_close_is_a_noop(self, tmp_path, name):
        """A sink must never raise from emit, and a closed recorder has
        nowhere to put a line: it drops it, counts nothing, holds nothing."""
        path = tmp_path / name
        sink = _record(path, SAMPLE_EVENTS)
        before = path.read_bytes()
        for _ in range(3 * BATCH_LINES):
            sink.emit(SAMPLE_EVENTS[1])
        sink.close()
        assert sink.events_written == len(SAMPLE_EVENTS)
        assert sink._lines == []
        assert path.read_bytes() == before

    @pytest.mark.parametrize("count", [
        0, 1, BATCH_LINES - 2, BATCH_LINES - 1, BATCH_LINES,
        2 * BATCH_LINES + 7,
    ])
    def test_batch_boundaries_lose_and_repeat_nothing(self, tmp_path, count):
        """The header rides the first batch; whatever the count relative
        to the batch size, the file is header + every event, in order."""
        events = [
            VictimArrival(time=i * 0.001, size=i, is_attack=bool(i % 2))
            for i in range(count)
        ]
        path = tmp_path / "r.jsonl.gz"
        sink = _record(path, events, metadata={"n": count})
        lines = gzip.open(path, "rt").read().splitlines()
        assert json.loads(lines[0])["metadata"] == {"n": count}
        assert lines[1:] == [
            json.dumps(e.to_dict(), separators=(",", ":")) for e in events
        ]
        assert sink.events_written == count

    def test_a_failed_batch_write_is_dropped_not_retried(self, tmp_path):
        """A full disk fails one batch; kept, that batch would be joined
        and written again on every later emit, growing each time."""

        class FullDisk:
            def __init__(self) -> None:
                self.sizes: list[int] = []
                self.raised: list[OSError] = []

            def write(self, data: bytes) -> int:
                self.sizes.append(len(data))
                self.raised.append(OSError(28, "No space left on device"))
                raise self.raised[-1]

            def close(self) -> None:
                pass

        sink = JsonlSink(str(tmp_path / "r.jsonl"))
        sink._file.close()
        disk = sink._file = FullDisk()
        raised = []
        for _ in range(3 * BATCH_LINES):
            try:
                sink.emit(SAMPLE_EVENTS[1])
            except OSError as exc:
                raised.append(exc)
                # Only the event just emitted: the failed batch is gone.
                assert sink._lines == [encode_line(SAMPLE_EVENTS[1])]
            # Let the writer finish what it was handed before the next
            # emit, so each failure surfaces at exactly that emit.
            sink._batches.join()
        assert len(raised) == len(disk.sizes) == 3
        # The tail is the fourth write, and its failure is close's.
        with pytest.raises(OSError) as at_close:
            sink.close()
        raised.append(at_close.value)
        assert len(raised) == len(disk.raised) == 4
        assert all(a is b for a, b in zip(raised, disk.raised))
        # No batch carries an earlier one (the first held the header).
        batch = BATCH_LINES * len(encode_line(SAMPLE_EVENTS[1]))
        assert disk.sizes[1:] == [batch, batch, len(encode_line(
            SAMPLE_EVENTS[1]))]

    @pytest.mark.parametrize("name", ["r.jsonl", "r.jsonl.gz"])
    def test_a_writer_error_is_raised_at_the_next_emit(self, tmp_path, name):
        """The writer's exception, the same object, comes out of the
        emitting thread's next call; the batch it lost is not retried and
        the batches after it are written."""
        sink = JsonlSink(str(tmp_path / name))
        real = sink._file
        failure = OSError(5, "Input/output error")
        writes: list[bytes] = []

        class FailsFirst:
            def write(self, data: bytes) -> int:
                writes.append(data)
                if len(writes) == 1:
                    raise failure
                return real.write(data)

            def close(self) -> None:
                real.close()

        sink._file = FailsFirst()
        first = [VictimArrival(time=i, size=i, is_attack=False)
                 for i in range(BATCH_LINES - 1)]
        sink.emit_many(first)
        sink._batches.join()
        with pytest.raises(OSError) as caught:
            sink.emit(SAMPLE_EVENTS[1])
        assert caught.value is failure
        second = [VictimArrival(time=i, size=i, is_attack=True)
                  for i in range(BATCH_LINES - 1)]
        sink.emit_many(second)  # completes the second batch: no raise
        sink.close()
        assert len(writes) == 3  # first batch, second batch, empty tail
        assert sink.events_written == 2 * BATCH_LINES - 1
        # The header rode the lost batch: what is on disk is the rest.
        opener = gzip.open if name.endswith(".gz") else open
        with opener(tmp_path / name, "rt") as handle:
            assert handle.read() == "".join(
                encode_line(e) for e in [SAMPLE_EVENTS[1], *second]
            )

    def test_a_writer_error_is_raised_at_close(self, tmp_path):
        """A tail that fails to write raises from ``close``; the file is
        closed and the writer stopped all the same."""
        failure = OSError(28, "No space left on device")
        closed = []

        class FailsTail:
            def write(self, data: bytes) -> int:
                raise failure

            def close(self) -> None:
                closed.append(True)

        sink = JsonlSink(str(tmp_path / "r.jsonl.gz"))
        sink._file.close()
        sink._file = FailsTail()
        sink.emit(SAMPLE_EVENTS[0])
        with pytest.raises(OSError) as caught:
            sink.close()
        assert caught.value is failure
        assert closed == [True]
        assert not sink._writer.is_alive()
        sink.close()  # idempotent, and the error is not raised twice
        sink.emit(SAMPLE_EVENTS[1])  # a no-op, not a raise

    @pytest.mark.parametrize("name", ["r.jsonl", "r.jsonl.gz"])
    def test_no_writer_thread_outlives_close(self, tmp_path, name):
        sink = JsonlSink(str(tmp_path / name))
        assert sink._writer.is_alive()
        for i in range(2 * BATCH_LINES + 5):
            sink.emit(VictimArrival(time=i, size=i, is_attack=False))
        sink.close()
        assert not sink._writer.is_alive()
        assert sink._writer not in threading.enumerate()

    def test_the_writer_writes_to_a_file_swapped_in_later(self, tmp_path):
        """The writer looks the file up at each write, so a file put in
        place after construction receives every batch and the tail."""
        sink = JsonlSink(str(tmp_path / "r.jsonl"))
        sink._file.close()

        class Collect(io.BytesIO):
            def close(self) -> None:
                self.final = self.getvalue()
                super().close()

        swapped = sink._file = Collect()
        events = [VictimArrival(time=i, size=i, is_attack=bool(i % 2))
                  for i in range(BATCH_LINES + 3)]
        sink.emit_many(events)
        sink.close()
        lines = swapped.final.decode("utf-8").splitlines()
        assert json.loads(lines[0])["schema"] == SCHEMA_NAME
        assert lines[1:] == [encode_line(e).rstrip("\n") for e in events]
        assert (tmp_path / "r.jsonl").read_bytes() == b""

    def test_concurrent_emitters_write_whole_lines(self, tmp_path):
        """Campaign demux threads share one recorder: every line must
        come out whole and every event exactly once."""
        threads, per_thread = 4, 3 * BATCH_LINES + 11
        path = tmp_path / "r.jsonl.gz"
        sink = JsonlSink(str(path))
        start = threading.Barrier(threads)

        def emitter(worker: int) -> None:
            start.wait(timeout=30)
            for i in range(per_thread):
                sink.emit(DefenseDecision(
                    time=float(i), action="drop", reason="probe",
                    truth="attack", flow=i, atr=f"atr{worker}",
                ))

        workers = [
            threading.Thread(target=emitter, args=(n,)) for n in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        sink.close()
        assert sink.events_written == threads * per_thread
        back = list(open_recording(str(path)).events())
        assert len(back) == threads * per_thread
        for worker in range(threads):
            mine = [e.flow for e in back if e.atr == f"atr{worker}"]
            assert mine == list(range(per_thread))


class TestRecorded:
    """``--record``'s one set-up: a sink on the bus for the block."""

    def test_records_the_block_then_counts_it(self, tmp_path, capsys):
        path = tmp_path / "r.jsonl"
        bus = EventBus()
        with recorded(str(path), bus, {"command": "test"}) as sink:
            for event in SAMPLE_EVENTS:
                bus.emit(event)
        bus.emit(SAMPLE_EVENTS[0])  # after the block: not recorded
        assert sink.events_written == len(SAMPLE_EVENTS)
        assert capsys.readouterr().out == f"recorded 4 events to {path}\n"
        recording = open_recording(str(path))
        assert recording.metadata == {"command": "test"}
        assert len(list(recording.events())) == len(SAMPLE_EVENTS)

    def test_no_path_records_nothing(self, tmp_path, capsys):
        bus = EventBus()
        with recorded(None, bus, {}) as sink:
            bus.emit(SAMPLE_EVENTS[0])
        assert sink is None
        assert capsys.readouterr().out == ""

    def test_a_block_that_raises_leaves_a_closed_file_and_no_count(
        self, tmp_path, capsys
    ):
        path = tmp_path / "r.jsonl.gz"
        bus = EventBus()
        with pytest.raises(RuntimeError):
            with recorded(str(path), bus, {}):
                bus.emit(SAMPLE_EVENTS[0])
                raise RuntimeError("boom")
        assert capsys.readouterr().out == ""
        assert len(list(open_recording(str(path)).events())) == 1


class TestOpenRecording:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(RecordingError, match="empty"):
            open_recording(str(path))

    def test_non_json_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(RecordingError, match="header"):
            open_recording(str(path))

    def test_foreign_schema_rejected(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text(json.dumps({"schema": "other.thing", "version": 1}) + "\n")
        with pytest.raises(RecordingError, match="not a"):
            open_recording(str(path))

    def test_newer_schema_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(
            {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION + 1}
        ) + "\n")
        with pytest.raises(RecordingError, match="newer"):
            open_recording(str(path))

    def test_unknown_event_kinds_skipped_and_counted(self, tmp_path):
        """Forward compatibility: a newer recorder's kinds don't kill
        an older reader."""
        path = tmp_path / "r.jsonl"
        lines = [
            json.dumps({"schema": SCHEMA_NAME, "version": SCHEMA_VERSION,
                        "metadata": {}}),
            json.dumps({"kind": "future.kind", "time": 0.0, "mystery": 1}),
            json.dumps(SAMPLE_EVENTS[1].to_dict()),
        ]
        path.write_text("\n".join(lines) + "\n")
        recording = open_recording(str(path))
        assert list(recording.events()) == [SAMPLE_EVENTS[1]]
        assert recording.unknown_kinds == 1

    def test_unknown_fields_dropped(self):
        """A known kind with extra fields (newer minor revision) loads."""
        payload = SAMPLE_EVENTS[2].to_dict()
        payload["brand_new_field"] = "ignored"
        assert event_from_dict(payload) == SAMPLE_EVENTS[2]

    def test_corrupt_event_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(
            {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION, "metadata": {}}
        ) + "\n{oops\n")
        with pytest.raises(RecordingError, match=":2:"):
            list(open_recording(str(path)).events())

    def test_truncated_gzip_raises_recording_error(self, tmp_path):
        """A recorder that died mid-write leaves a cut-off gzip stream;
        readers must see a RecordingError, not a bare EOFError."""
        path = tmp_path / "r.jsonl.gz"
        _record(path, SAMPLE_EVENTS * 200)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 30])
        with pytest.raises(RecordingError, match="truncated"):
            list(open_recording(str(path)).events())

    def test_gzip_cut_at_any_offset_is_a_clean_prefix_then_truncated(
        self, tmp_path
    ):
        """Whatever byte a dying recorder stopped at, a reader gets whole
        events in order and then ``truncated`` — never half a line parsed
        as an event, never a bare ``EOFError``.

        Cuts are taken at every offset of the gzip header and trailer and
        within 64 bytes of each batch write, and at a seeded sample of
        the offsets in between."""
        events = [
            DefenseDecision(
                time=i * 0.37, action="drop", reason="probe", truth="attack",
                flow=(i * 2654435761) % 2 ** 48, atr=f"atr{i % 7}",
            )
            for i in range(400)
        ]
        whole = tmp_path / "whole.jsonl.gz"
        _record(whole, events)
        data = whole.read_bytes()
        assert list(open_recording(str(whole)).events()) == events
        # One batch (the header line and 400 events), written at close:
        # its deflate bytes run from the end of the gzip header (10 bytes
        # and the NUL-terminated file name) to the 8-byte trailer.
        assert len(events) + 1 < BATCH_LINES and data[3] == 0x08  # FNAME only
        body_start, body_end = data.index(0, 10) + 1, len(data) - 8
        offsets = {*range(body_start + 64), *range(body_end - 64, len(data))}
        offsets.update(
            random.Random(0).sample(range(body_start + 64, body_end - 64), 256)
        )
        cut = tmp_path / "cut.jsonl.gz"
        longest = 0
        for offset in sorted(offsets):
            cut.write_bytes(data[:offset])
            seen = []
            with pytest.raises(RecordingError) as failure:
                for event in open_recording(str(cut)).events():
                    seen.append(event)
            assert seen == events[:len(seen)], offset
            if seen:
                assert "truncated" in str(failure.value), offset
            longest = max(longest, len(seen))
        assert longest > len(events) // 2  # the prefix really grows

    def test_events_iterable_more_than_once(self, tmp_path):
        path = tmp_path / "r.jsonl"
        _record(path, SAMPLE_EVENTS)
        recording = open_recording(str(path))
        assert list(recording.events()) == list(recording.events())


def _fingerprint(result):
    summary = dataclasses.asdict(result.summary)
    return (
        {k: (v.hex() if isinstance(v, float) else v)
         for k, v in summary.items()},
        [v.hex() for v in result.series.total_kbps],
        result.events_executed,
    )


class TestRecordingARun:
    """The tentpole acceptance properties, at unit scale."""

    def test_recording_leaves_results_bit_exact(self, tmp_path):
        """A run with a JsonlSink attached is bit-identical to a bare
        run — the golden-master guarantee extends to recording."""
        config = ExperimentConfig(**TINY)
        baseline = _fingerprint(run_experiment(config))
        bus = EventBus()
        with JsonlSink(str(tmp_path / "r.jsonl.gz")) as sink:
            bus.subscribe(sink)
            recorded = _fingerprint(run_experiment(config, bus=bus))
        assert recorded == baseline

    def test_replayed_stream_reproduces_live_snapshot(self, tmp_path):
        """Record and fold one run on a shared bus; refolding the file
        into a fresh LiveMetrics lands on the identical snapshot."""
        path = tmp_path / "r.jsonl.gz"
        live = LiveMetrics(window=1.0)
        bus = EventBus()
        bus.subscribe(live)
        with JsonlSink(str(path)) as sink:
            bus.subscribe(sink)
            run_experiment(ExperimentConfig(**TINY), bus=bus)
        refolded = LiveMetrics(window=1.0)
        recording = open_recording(str(path))
        count = 0
        for event in recording.events():
            refolded.emit(event)
            count += 1
        assert count == sink.events_written > 0
        assert recording.unknown_kinds == 0
        assert refolded.snapshot() == live.snapshot()


def _tiny_cli_run(path):
    from repro.experiments import cli

    return cli.main([
        "run", "--flows", "8", "--routers", "6", "--seed", "3",
        "--record", str(path),
    ])


def _whole_recording(path):
    text = gzip.open(path, "rt").read()  # raises unless closed properly
    assert text.endswith("}\n")
    recording = open_recording(str(path))
    assert recording.metadata["command"] == "run"
    events = list(recording.events())
    assert len(events) == text.count("\n") - 1
    assert events[0].kind == "run.started"
    return events


@pytest.mark.parametrize("fuse", [40, 700, 2000])
def test_a_run_that_dies_mid_simulation_leaves_a_whole_recording(
    tmp_path, monkeypatch, fuse
):
    """The simulation raises once ``fuse`` events are out — before the
    run batch's first flush, after one, after several.  ``run_experiment``
    flushes on the way out and ``repro run --record`` closes the recorder
    in ``finally``: every event emitted before the crash is on disk, last
    line whole, and it is what a sink beside the recorder saw."""
    from repro.experiments import cli, runner

    beside = BufferedSink()
    window = []

    def exploding_run(config, bus=None):
        rehearsal = BufferedSink()
        run_experiment(config, bus=rehearsal)
        times = [event.time for event in rehearsal.events[:-1]]
        crash_at = times[fuse]
        window[:] = [
            sum(t < crash_at for t in times), sum(t <= crash_at for t in times)
        ]

        def boom():
            raise RuntimeError("boom mid-simulation")

        def build_then_arm(*args, **kwargs):
            scenario = build_scenario(*args, **kwargs)
            scenario.sim.schedule_at(crash_at, boom)
            return scenario

        build_scenario = runner.build_scenario
        monkeypatch.setattr(runner, "build_scenario", build_then_arm)
        bus.subscribe(beside)
        return run_experiment(config, bus=bus)

    monkeypatch.setattr(cli, "run_experiment", exploding_run)
    path = tmp_path / "crash.jsonl.gz"
    with pytest.raises(RuntimeError, match="boom"):
        _tiny_cli_run(path)
    events = _whole_recording(path)
    assert events == beside.events
    assert window[0] <= len(events) <= window[1]
    assert len(events) // BATCH_LINES == fuse // BATCH_LINES  # flushes before
    assert events[-1].kind != "run.completed"


class _BatchBomb:
    """A sink that kills the run it observes at its ``fuse``-th batch."""

    def __init__(self, fuse: int) -> None:
        self.fuse = fuse

    def emit(self, event) -> None:
        self.emit_many([event])

    def emit_many(self, events) -> None:
        self.fuse -= 1
        if self.fuse <= 0:
            raise RuntimeError("boom inside a sink")

    def close(self) -> None:
        pass


@pytest.mark.parametrize("fuse", [1, 3])
def test_a_later_sink_that_raises_leaves_the_recorder_its_batches(
    tmp_path, monkeypatch, fuse
):
    """Sinks are served in attachment order: the recorder has the batch
    before the sink after it can raise on it, the run aborts there, and
    ``repro run``'s ``finally`` still closes a whole file."""
    from repro.experiments import cli

    clean = BufferedSink()

    def exploding_run(config, bus=None):
        run_experiment(config, bus=clean)
        bus.subscribe(_BatchBomb(fuse))
        return run_experiment(config, bus=bus)

    monkeypatch.setattr(cli, "run_experiment", exploding_run)
    path = tmp_path / "crash.jsonl.gz"
    with pytest.raises(RuntimeError, match="boom inside a sink"):
        _tiny_cli_run(path)
    assert _whole_recording(path) == clean.events[:fuse * BATCH_LINES]
