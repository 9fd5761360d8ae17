"""Simulator fixtures for the sim-layer tests.

Overrides the top-level ``sim`` fixture to run every engine-facing test
against BOTH engine cores: the public :class:`Simulator` (the compiled
extension when it is built, else the pure engine) and the pure-Python
reference, which stays importable beside it.  The two must expose the
identical ``(time, priority, seq)`` semantics, so a behavioural test that
passes on one and fails on the other is a twin bug by definition.

The two arms keep the ids they had while the engine had two queue
backends — ``heap`` and ``calendar`` — because the test-floor list pins
ids, not meanings: ``heap`` is the public class, ``calendar`` the
reference.  In a pure-only environment they are the same class.
"""

from __future__ import annotations

import pytest

from repro.sim import engine

#: id -> simulator class (see the module docstring for the names).
ENGINE_CORES = {"heap": engine.Simulator, "calendar": engine.PySimulator}


@pytest.fixture(params=list(ENGINE_CORES))
def sim(request) -> engine.Simulator:
    """A fresh simulator clock, once per engine core."""
    return ENGINE_CORES[request.param]()
