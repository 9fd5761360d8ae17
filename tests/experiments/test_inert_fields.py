"""Three config fields change nothing a run computes.

``trace_enabled`` and ``trace_max_records`` once switched and capped a
per-run event trace, and ``streaming_series`` once chose the victim
collector.  None of them is read by a run any more; they stay declared
only because they are hashed into run identity (ROADMAP item 12).  That
is only safe while flipping one changes no result: this test is the
proof a field needs before run identity may stop hashing it, and a new
observation field joins it before it can leave the hash.
"""

import pytest

from repro.experiments.presets import PRESETS, get_preset
from repro.experiments.runner import run_experiment

TINY = {"total_flows": 10, "n_routers": 8, "duration": 2.0, "seed": 3}

#: Each flip of an inert field, applied on its own.
FLIPS = (
    ("trace_enabled", False),
    ("trace_enabled", True),
    ("trace_max_records", None),
    ("trace_max_records", 0),
    ("trace_max_records", 50),
    ("streaming_series", True),
    ("streaming_series", False),
)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_flipping_an_inert_field_changes_no_result(preset):
    config = get_preset(preset).with_overrides(**TINY)
    run = run_experiment(config)
    assert run.events_executed > 0
    baseline = run.fingerprint()
    for field, value in FLIPS:
        if getattr(config, field) == value:
            continue  # the baseline run already has it
        flipped = config.with_overrides(**{field: value})
        assert flipped.config_hash() != config.config_hash()
        assert run_experiment(flipped).fingerprint() == baseline, (field, value)
