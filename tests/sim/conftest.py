"""Simulator fixtures for the sim-layer tests.

Overrides the top-level ``sim`` fixture to run every engine-facing test
against BOTH engine cores: the public :class:`Simulator` (the compiled
extension when it is built, else the pure engine) and the pure-Python
reference, which stays importable beside it.  The two must expose the
identical ``(time, priority, seq)`` semantics, so a behavioural test that
passes on one and fails on the other is a twin bug by definition.

The two arms are ``public`` and ``reference``.  In a pure-only
environment they are the same class.
"""

from __future__ import annotations

import pytest

from repro.sim import engine

#: id -> simulator class.
ENGINE_CORES = {"public": engine.Simulator, "reference": engine.PySimulator}


@pytest.fixture(params=list(ENGINE_CORES))
def sim(request) -> engine.Simulator:
    """A fresh simulator clock, once per engine core."""
    return ENGINE_CORES[request.param]()
