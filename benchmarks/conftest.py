"""Shared benchmark configuration.

Every benchmark regenerates one figure of the paper's evaluation and
prints the same series the published plot shows (captured in
``bench_output.txt`` when tee'd).

Environment knob:

``REPRO_BENCH_SCALE``
    Sweep-resolution factor in (0, 1]; smaller thins the sweep axes and
    trades fidelity for wall time.  Default 0.5; 1.0 = the full
    published axes.
"""

from __future__ import annotations

import os

import pytest


def bench_scale() -> float:
    """Sweep-resolution factor for this benchmark session."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


@pytest.fixture
def scale() -> float:
    return bench_scale()


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Figure sweeps are minutes-scale; statistical repetition belongs to
    the simulator's own determinism, not to repeated sweeps.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def monotone_non_increasing(values, slack=0.0):
    """True when the sequence never rises by more than ``slack``."""
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def series_mean(figure, name):
    """Mean y of one series."""
    ys = figure.ys(name)
    return sum(ys) / len(ys)
