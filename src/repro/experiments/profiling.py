"""cProfile wrapper shared by ``run --profile`` and ``campaign run --profile``.

Future perf work starts from data: both CLIs capture exactly the
single-run hot path (scenario build plus the event loop), dump pstats
to a file (inspect with ``python -m pstats FILE``), and print the
hottest functions.  The campaign variant profiles *one grid cell* —
profiling a whole grid would smear unrelated cells together, and worker
subprocesses can't be profiled from the parent anyway — so
:func:`repro.campaign.orchestrator.run_campaign` wraps the in-process
worker's ``run_cell`` seam in :func:`profiled_call` and caps the
invocation at one cell while a profile is requested.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Callable, TypeVar

T = TypeVar("T")


def profiled_call(
    fn: Callable[[], T], out_path: str, top: int = 15
) -> T:
    """Run ``fn`` under cProfile; dump stats, print the top, return."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    profiler.dump_stats(out_path)
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)
    print(f"profile written to {out_path}")
    return result
