"""Randomized scheduler fuzz: the pure engine against the compiled core.

One seeded operation stream — schedule/schedule_anon/cancel/postpone/
series/peek/partial-run, interleaved — is replayed against the
pure-Python engine and the compiled C core (when built).  Both
executions must produce the identical callback firing order, the
identical ``seq`` draws for every returned handle, and identical
pending/cancel bookkeeping, ``queue_stats()`` included.  This is the
edge-case net under the golden master: golden runs exercise the hot
paths, the fuzz stream hammers the rare interleavings (postpone-earlier
fallbacks, cancel-after-fire, series stopped while queued, compaction
mid-stream, a cut-off landing on a handle-free entry).
``test_queue_counters.py`` replays the same stream against a shadow
that counts every push and pop.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import engine
from repro.sim._core import compiled

IMPLS = [("pure", engine.PySimulator)]
if compiled is not None:
    IMPLS.append(("compiled", compiled.Simulator))

SEEDS = (20260808, 4242, 77)


def run_fuzz(sim_cls, seed: int, ops: int = 800, probe=None):
    """Replay the seeded op stream; return everything order-sensitive.

    ``probe(sim)``, when given, is called inside every handler and after
    every partial run — the moments a reader of ``queue_stats()`` has.
    """
    rng = random.Random(seed)
    sim = sim_cls()
    log: list = []
    seqs: list[int] = []
    handles: list = []   # plain-event handles we may cancel/postpone
    series: list = []
    if probe is None:
        def probe(sim):
            return None

    def cb(tag):
        def fire():
            log.append((tag, sim.now))
            probe(sim)
        return fire

    for i in range(ops):
        r = rng.random()
        if r < 0.38:
            t = sim.now + round(rng.uniform(0.0, 4.0), 3)
            ev = sim.schedule_at(t, cb(i), priority=rng.choice((-1, 0, 1)))
            handles.append(ev)
            seqs.append(ev.seq)
        elif r < 0.50:
            t = sim.now + round(rng.uniform(0.0, 4.0), 3)
            # Fire-and-forget: there is no handle, so only the callback
            # log observes it.
            assert sim.schedule_anon(t, cb(("anon", i))) is None
        elif r < 0.58 and handles:
            # May already have fired or been cancelled — cancel() is
            # idempotent and a no-op then, which is part of the contract.
            handles.pop(rng.randrange(len(handles))).cancel()
        elif r < 0.60:
            # A burst scheduled and mostly cancelled again: dead entries
            # come to outnumber live ones past _COMPACT_MIN_DEAD, so the
            # heap compacts (with handle-free entries in it to keep).
            burst = [
                sim.schedule_at(sim.now + round(rng.uniform(0.0, 8.0), 3), cb(i))
                for _ in range(rng.randrange(100, 400))
            ]
            seqs.extend(ev.seq for ev in burst)
            rng.shuffle(burst)
            handles.extend(burst[:5])
            for ev in burst[5:]:
                ev.cancel()
            probe(sim)
        elif r < 0.70 and handles:
            j = rng.randrange(len(handles))
            ev = handles[j]
            if not ev.cancelled:
                # Uniform around ``now`` regardless of ev.time: hits the
                # lazy in-place path (later deadline) and the eager
                # cancel+reschedule fallback (earlier deadline).
                t = sim.now + round(rng.uniform(0.0, 6.0), 3)
                handles[j] = sim.postpone(ev, t)
                seqs.append(handles[j].seq)
        elif r < 0.78:
            start = sim.now + round(rng.uniform(0.001, 2.0), 3)
            times = [start]
            for _ in range(rng.randrange(0, 3)):
                times.append(times[-1] + round(rng.uniform(0.0, 1.0), 3))
            sv = sim.schedule_series(times, cb(("series", i)))
            series.append(sv)
            seqs.append(sv.seq)
        elif r < 0.83 and series:
            sv = series.pop(rng.randrange(len(series)))
            if rng.random() < 0.5:
                sv.stop()
            else:
                sv.cancel()
        elif r < 0.87:
            # Discards dead and re-files stale entries at the top.
            log.append(("peek", sim.peek_time()))
            probe(sim)
        elif r < 0.90:
            sim.run(max_events=rng.randrange(1, 6))
            probe(sim)
        else:
            sim.run(until=sim.now + round(rng.uniform(0.0, 0.6), 3))
            probe(sim)

    sim.run()  # drain
    probe(sim)
    return {
        "log": log,
        "seqs": seqs,
        "pending": sim.pending(),
        "events_executed": sim.events_executed,
        "now": sim.now,
        "stats": sim.queue_stats(),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_identical_across_backends_and_cores(seed):
    runs = {impl: run_fuzz(sim_cls, seed) for impl, sim_cls in IMPLS}
    reference = runs["pure"]
    assert reference["events_executed"] > 100  # the stream actually ran
    assert reference["stats"]["pushes"] > reference["events_executed"]

    # Full counter parity: the compiled core must mirror the pure
    # bookkeeping exactly, dead/peak/pushes included.
    for impl, run in runs.items():
        assert run == reference, impl


@pytest.mark.skipif(compiled is None, reason="compiled core not built")
def test_public_engine_exports_compiled_when_built():
    """When the extension is importable (and not forced off), the public
    ``Simulator`` IS the compiled one — no silent fallback."""
    assert engine.Simulator is compiled.Simulator
    assert engine.Event is compiled.Event
    assert engine.SeriesEvent is compiled.SeriesEvent


def test_pure_engine_always_importable():
    """The pure twins stay reachable for side-by-side testing."""
    sim = engine.PySimulator()
    fired = []
    sim.schedule(1.0, fired.append, "ok")
    sim.run()
    assert fired == ["ok"]
