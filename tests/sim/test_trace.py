"""Tests for repro.sim.trace."""

import pytest

from repro.sim.trace import EventTrace, TraceRecord


class TestEventTrace:
    def test_record_and_select(self):
        trace = EventTrace()
        trace.record(1.0, "drop.probe", flow=42)
        trace.record(2.0, "drop.pdt", flow=42)
        trace.record(3.0, "probe.sent", flow=42)
        assert trace.count("drop.probe") == 1
        assert trace.count("drop.") == 2  # prefix match
        assert len(trace) == 3

    def test_disabled_trace_is_noop(self):
        trace = EventTrace(enabled=False)
        trace.record(1.0, "drop.probe")
        assert len(trace) == 0

    def test_max_records_cap(self):
        trace = EventTrace(max_records=2)
        for i in range(5):
            trace.record(float(i), "x")
        assert len(trace) == 2
        assert trace.dropped_records == 3

    def test_between(self):
        trace = EventTrace()
        for t in (0.5, 1.5, 2.5):
            trace.record(t, "x")
        assert len(trace.between(1.0, 2.0)) == 1
        # Interval is half-open: [start, end).
        assert len(trace.between(0.5, 1.5)) == 1

    def test_detail_kept(self):
        trace = EventTrace()
        trace.record(1.0, "flow.cut", flow=7, atr="ingress0")
        record = trace.select("flow.cut")[0]
        assert record.detail == {"flow": 7, "atr": "ingress0"}

    def test_categories(self):
        trace = EventTrace()
        trace.record(1.0, "a")
        trace.record(2.0, "b")
        assert trace.categories() == {"a", "b"}

    def test_clear(self):
        trace = EventTrace()
        trace.record(1.0, "a")
        trace.clear()
        assert len(trace) == 0
        assert trace.dropped_records == 0

    def test_extend_respects_cap(self):
        trace = EventTrace(max_records=1)
        records = [TraceRecord(float(i), "x") for i in range(3)]
        trace.extend(records)
        assert len(trace) == 1
        assert trace.dropped_records == 2

    def test_iteration(self):
        trace = EventTrace()
        trace.record(1.0, "a")
        trace.record(2.0, "b")
        assert [r.category for r in trace] == ["a", "b"]

    def test_extend_into_disabled_trace_is_noop(self):
        trace = EventTrace(enabled=False)
        trace.extend([TraceRecord(1.0, "x"), TraceRecord(2.0, "y", {"flow": 3})])
        assert len(trace) == 0
        assert trace.dropped_records == 0

    def test_extend_keeps_records(self):
        trace = EventTrace()
        records = [
            TraceRecord(1.0, "probe.sent", {"flow": 7, "atr": "ingress0"}),
            TraceRecord(2.0, "pushback.stop", {"atr": "ingress0"}),
            TraceRecord(3.0, "x"),
        ]
        trace.extend(records)
        assert list(trace) == records

    def test_view_detail_holds_only_given_keys(self):
        trace = EventTrace()
        trace.record(1.0, "pushback.start", atr="ingress0")
        trace.record(2.0, "drop.pdt", flow=0)
        trace.record(3.0, "x")
        assert [r.detail for r in trace] == [{"atr": "ingress0"}, {"flow": 0}, {}]

    def test_reads_agree_on_prefix_and_exact_categories(self):
        trace = EventTrace()
        for i, category in enumerate(
            ("drop.probe", "probe.sent", "drop.pdt", "drop.probe", "dropped")
        ):
            trace.record(float(i), category, flow=i)
        assert trace.count("drop.") == len(trace.select("drop.")) == 3
        assert trace.count("drop.probe") == 2
        assert [r.time for r in trace.select("drop.probe")] == [0.0, 3.0]
        assert trace.count("drop") == 0
        assert trace.count("absent.") == 0 and trace.select("absent.") == []

    def test_unknown_detail_key_is_rejected(self):
        with pytest.raises(TypeError):
            EventTrace().record(1.0, "x", reason="probe")
