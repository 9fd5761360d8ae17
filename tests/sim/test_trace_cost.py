"""What one trace record costs: a few column slots, no object of its own.

A run records one trace entry per MAFIC probe, verdict and adaptive
drop, so the trace is what grows with a run's length.  Fed 20,000
drop-shaped records whose times and flow ints exist beforehand (as they
do in a run: the flow is the packet's hash, the ATR the router's name),
the trace must

(a) grow the traced heap by at most 48 bytes per record, and
(b) add fewer than 16 objects the garbage collector tracks, in total.

A trace that kept one ``TraceRecord`` and one detail dict per record
grew 248 bytes and one tracked object (the record; CPython untracks a
dict of ints and strings) per record on CPython 3.11.
"""

import gc
import tracemalloc

from repro.sim.trace import EventTrace

RECORDS = 20_000
ATR = "ingress7"


def _inputs():
    times = [i * 1e-4 for i in range(RECORDS)]
    flows = [(0x9E3779B97F4A7C15 * (i + 1)) & ((1 << 64) - 1) for i in range(RECORDS)]
    return times, flows


def _fill(trace, times, flows):
    record = trace.record
    for time, flow in zip(times, flows):
        record(time, "drop.probe", flow=flow, atr=ATR)


def test_heap_growth_per_record():
    times, flows = _inputs()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = EventTrace()
        _fill(trace, times, flows)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == RECORDS
    assert grown / RECORDS <= 48, f"{grown / RECORDS:.1f} B per record"


def test_no_tracked_object_per_record():
    times, flows = _inputs()
    trace = EventTrace()
    gc.collect()
    before = len(gc.get_objects())
    _fill(trace, times, flows)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert len(trace) == RECORDS
    assert grown < 16, f"{grown} tracked objects for {RECORDS} records"
