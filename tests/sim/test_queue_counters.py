"""``queue_stats()`` is derived, and must equal a count of every push and pop.

The pure engine keeps no per-push or per-pop counter: ``queued``, ``live``,
``peak_occupancy``, ``dead`` and ``pushes`` are worked out from
``len(heap)`` and three rare-path tallies.  The shadow here is the
bookkeeping that used to be stored — it wraps the three ``heapq`` calls
the engine makes and counts — and the fuzz operation stream is replayed
with the two compared at every moment a reader has: inside each handler,
after each ``peek_time``, after each ``run(until=)`` / ``run(max_events=)``.
The compiled core, which still stores its counters, must report the same
sequence.
"""

from __future__ import annotations

import heapq

import pytest

from repro.sim import engine
from repro.sim._core import compiled
from tests.sim.test_engine_fuzz import SEEDS, run_fuzz

COUNTERS = ("queued", "live", "peak_occupancy", "dead", "pushes")


class _Shadow:
    """Counts every push and pop the pure engine makes on its heap."""

    def __init__(self, monkeypatch):
        self.pushes = self.size = self.peak = self.compactions = 0
        monkeypatch.setattr(engine, "_heappush", self._push)
        monkeypatch.setattr(engine, "_heappop", self._pop)
        monkeypatch.setattr(engine, "_heapify", self._heapify)

    def _push(self, heap, entry):
        heapq.heappush(heap, entry)
        self.pushes += 1
        self.size += 1
        self.peak = max(self.peak, self.size)

    def _pop(self, heap):
        self.size -= 1
        return heapq.heappop(heap)

    def _heapify(self, heap):  # a compaction: whatever it kept is the size
        heapq.heapify(heap)
        self.size = len(heap)
        self.compactions += 1

    def expected(self, sim) -> dict:
        dead = sum(
            1 for entry in sim._heap
            if entry[3] is not None and entry[3].fn is None
        )
        assert self.size == len(sim._heap)
        return {
            "queued": self.size,
            "live": self.size - dead,
            "peak_occupancy": self.peak,
            "dead": dead,
            "pushes": self.pushes,
        }


def _counters(sim) -> dict:
    stats = sim.queue_stats()
    return {key: stats[key] for key in COUNTERS}


@pytest.mark.parametrize("seed", SEEDS)
def test_derived_counters_equal_a_count_of_every_push_and_pop(seed, monkeypatch):
    shadow = _Shadow(monkeypatch)
    seen = []

    def probe(sim):
        seen.append(_counters(sim))
        assert seen[-1] == shadow.expected(sim), len(seen)

    run_fuzz(engine.PySimulator, seed, probe=probe)
    assert len(seen) > 300
    assert shadow.compactions > 0
    assert max(s["dead"] for s in seen) > 0
    assert seen[-1]["pushes"] > seen[-1]["peak_occupancy"] > 100

    if compiled is not None:
        stored = []
        run_fuzz(
            compiled.Simulator, seed,
            probe=lambda sim: stored.append(_counters(sim)),
        )
        assert stored == seen


def test_a_raising_handler_still_counts_as_a_push(sim, monkeypatch):
    shadow = _Shadow(monkeypatch) if type(sim) is engine.PySimulator else None

    def boom():
        raise RuntimeError("boom")

    sim.schedule_anon(1.0, boom)
    sim.schedule_at(2.0, boom)
    sim.schedule(3.0, lambda: None)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
    assert sim.run() == 3.0
    assert sim.events_executed == 1
    assert _counters(sim) == {
        "queued": 0, "live": 0, "peak_occupancy": 3, "dead": 0, "pushes": 3,
    }
    if shadow is not None:
        assert _counters(sim) == shadow.expected(sim)
