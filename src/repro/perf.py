"""Engine performance-mode flags.

The PR 4 hot-path overhaul is provably result-preserving: the calendar
queue executes the identical event sequence as the heap, the packet pool
recycles objects without changing uids or field values, and batched
source generation consumes the same RNG streams in the same draw order.
These flags exist so the legacy formulation stays runnable — the
``bench_engine`` benchmark measures both modes *in the same process* and
asserts their results are bit-identical before reporting a speedup, and
CI's ``engine-perf-smoke`` job runs the invariants at tiny scale.

Not every overhaul sits behind a flag.  The forwarding plane's route
memo is *structural*: :class:`repro.sim.node.Router` resolves local
delivery, longest-prefix match and the outgoing link in one
per-destination probe whatever ``hot_path_caches`` says, and
:class:`repro.sim.routing.RoutingTable` keeps no cache of its own to
switch off — one ``FLAGS`` branch site fewer, and one more reason a
``legacy_mode`` wall time understates the pre-overhaul cost.

``FLAGS`` is a process-global (the simulator is single-threaded per
process; parallel sweep workers inherit the defaults).  Use
:func:`engine_mode` to override temporarily::

    with engine_mode(queue="heap", packet_pool=False, batched_sources=False):
        result = run_experiment(config)   # legacy engine, identical results
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class PerfFlags:
    """Which engine formulation runs."""

    #: Default Simulator queue backend: "heap" or "calendar".  Both are
    #: proven bit-exact, and the compiled core (repro.sim._corec)
    #: implements both in C — a level playing field the calendar wheel
    #: still loses on: measured on the Table-II scenario the compiled
    #: heap beats the compiled wheel (the wheel pays anchor/migrate/
    #: resize bookkeeping that a ~100-1000-event pending set never
    #: amortizes), so the heap stays default by measurement, not by
    #: implementation-language accident (see BENCH_engine.json).
    queue: str = "heap"
    #: Recycle Packet objects through the free-list pool during runs.
    packet_pool: bool = True
    #: CBR/on-off senders precompute departure times per horizon chunk
    #: (and zombies sharing an RNG stream prefetch jitter draws).
    batched_sources: bool = True
    #: Cross-layer memoization (source-legality checks, flow labels,
    #: LogLog item hashes, spoofed flow keys).  Toggleable so
    #: ``legacy_mode`` can measure the pre-overhaul formulation in the
    #: same process.  The route memo is no longer among them: the
    #: router's per-destination memo is structural (see module docstring).
    hot_path_caches: bool = True
    #: TCP senders postpone their pending RTO event in place per ACK
    #: (``Simulator.postpone``) instead of a cancel+reschedule round
    #: trip through the queue.  Bit-exact: one seq draw either way.
    lazy_timers: bool = True
    #: Fire-and-forget link events (drain wake-ups, deliveries) ride
    #: recycled handles from the simulator's Event free list.
    event_pool: bool = True


FLAGS = PerfFlags()

_FIELDS = (
    "queue", "packet_pool", "batched_sources", "hot_path_caches",
    "lazy_timers", "event_pool",
)


@contextmanager
def engine_mode(**overrides):
    """Temporarily override :data:`FLAGS` fields (see module docstring)."""
    unknown = set(overrides) - set(_FIELDS)
    if unknown:
        raise TypeError(f"unknown perf flags: {sorted(unknown)}")
    saved = {name: getattr(FLAGS, name) for name in _FIELDS}
    try:
        for name, value in overrides.items():
            setattr(FLAGS, name, value)
        yield FLAGS
    finally:
        for name, value in saved.items():
            setattr(FLAGS, name, value)


def legacy_mode():
    """The pre-overhaul formulation: heap queue, no pool, unbatched
    ticks, no cross-layer caches.  A few structural changes (slotted
    Packet/FlowKey, precomputed subnet masks, bytearray sketch
    registers) cannot be toggled back, so a legacy-mode wall time still
    slightly *understates* the true pre-PR cost — speedups measured
    against it are conservative."""
    return engine_mode(
        queue="heap", packet_pool=False, batched_sources=False,
        hot_path_caches=False, lazy_timers=False, event_pool=False,
    )
