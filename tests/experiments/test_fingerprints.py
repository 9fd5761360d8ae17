"""Every preset's run, pinned by its fingerprint on both engine cores.

``fixtures/fingerprints.json`` maps each preset at tiny scale, on seeds
1 and 2, to :meth:`ExperimentResult.fingerprint` — the summary, both
victim series, the event count, activation, the identified ATRs and
every MAFIC verdict in order.  The golden master pins ``paper-default``'s
summary field by field; this pins every preset, verdicts included, so a
change that moves one SFT -> NFT/PDT verdict fails here even when no
summary count moves.

There is no writer mode: a mismatch prints the table it computed.  The
pure core defines the correct table; re-record only under README's
"Re-recording the golden fixture" policy, naming the rows that moved.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.presets import PRESETS, get_preset
from repro.experiments.runner import run_experiment

FIXTURE = Path(__file__).parent / "fixtures" / "fingerprints.json"

#: The tiny scale every row runs at.  It overrides every field through
#: which ``huge-topology`` differs in result from ``paper-default`` (its
#: scale and duration; its other two fields are inert, see
#: ``test_inert_fields.py``), so their rows are equal by construction.
TINY = {"total_flows": 10, "n_routers": 8, "duration": 2.0}
SEEDS = (1, 2)


@pytest.mark.parametrize("queue", ["public", "reference"])
def test_every_preset_matches_its_pinned_fingerprint(queue, monkeypatch):
    from tests.sim.conftest import ENGINE_CORES

    core = ENGINE_CORES[queue]
    monkeypatch.setattr("repro.sim.topology.Simulator", core)
    table = {}
    for name in sorted(PRESETS):
        for seed in SEEDS:
            config = get_preset(name).with_overrides(seed=seed, **TINY)
            result = run_experiment(config)
            assert type(result.scenario.sim) is core
            table.setdefault(name, {})[str(seed)] = result.fingerprint()
    pinned = json.loads(FIXTURE.read_text())
    assert table == pinned, "computed:\n" + json.dumps(table, indent=2, sort_keys=True)
