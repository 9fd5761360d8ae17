"""A run leaves nothing for the cyclic garbage collector.

Every object a run makes and lets go must die by refcount the moment
its last reference goes, because the simulation makes a great many of
them: under per-packet source rotation every attack packet is a new
flow with its own flow key, reverse key and label.  An object caught in
a reference cycle outlives its last use until a generation-2 collection
finds it, so a run whose objects form cycles holds a growing heap of
dead state between collections (a key and its memoized reverse once
pointed at each other, and ``rotation-stress`` left ~900 dead keys per
tiny run for the collector).

Each preset runs once to warm lazy imports and caches, then again with
the cyclic collector disabled and the result kept alive: one
``gc.collect()`` must then find nothing unreachable.
"""

import gc
from collections import Counter

import pytest

from repro.experiments.presets import PRESETS, get_preset
from repro.experiments.runner import run_experiment


def _tiny(name):
    return get_preset(name).with_overrides(
        total_flows=10, n_routers=8, duration=2.0, seed=3
    )


def _cyclic_garbage(config) -> Counter:
    """Types of what one run left only the cyclic collector can free."""
    gc.collect()
    gc.disable()
    try:
        result = run_experiment(config)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            garbage = Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        gc.enable()
    assert result.events_executed > 0
    return garbage


@pytest.mark.parametrize("name", list(PRESETS))
def test_a_run_makes_no_cyclic_garbage(name):
    config = _tiny(name)
    run_experiment(config)  # warm: first-use imports leave cycles of their own
    garbage = _cyclic_garbage(config)
    assert not garbage, garbage.most_common(8)
