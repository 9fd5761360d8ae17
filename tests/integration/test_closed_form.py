"""Figure 2 in closed form: the defence against numbers derived without it.

In paper-default every zombie is a CBR source at R carrying one spoofed
source address for its whole life, and every attack packet that reaches
an active ATR is examined.  Figure 2 then fixes what each zombie gets
through, from the config alone:

* an illegal-source zombie is dropped at every examined packet (step 1);
* a legal-source zombie passes each packet before its admission with
  probability 1 - Pd (a geometric count, mean (1 - Pd)/Pd), is admitted
  at its first probe drop, spends one probe timer W =
  ``probe_timer_rtt_multiplier * default_rtt`` in the SFT, where each of
  its ``pps * W`` packets passes with probability 1 - Pd, and is cut.

So alpha = 1 - n_legal * [(1 - Pd)/Pd + (1 - Pd) * pps * W] / examined,
with the geometric and binomial variances summed over the legal zombies.
Legality comes from the topology's ``AddressSpace`` applied to each
built zombie's wire source, never from the verdicts.  The pass rate
cancels between passes and examined, so alpha does not depend on R.

``MetricsSummary.theta_n`` is not 0 here: it is attack passes over
attack examined, 1 - alpha.  What holds at the flow level is that no
attack flow is ever judged ``nice``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import pytest

from repro.experiments.presets import get_preset
from repro.experiments.runner import run_experiment
from repro.metrics.collectors import FlowTruth
from repro.obs.bus import CallbackSink, EventBus

MODELLED = ("paper-default", "all-legal-spoofing")
PRESETS = (*MODELLED, "all-illegal-sources")
ALPHA_SEEDS = (1, 2, 3, 4, 5)
VERDICT_SEEDS = (1, 2, 3)


@dataclass(frozen=True)
class _Run:
    """What one run tells the oracle, without its object graph."""

    config: object
    alpha: float
    attack_examined: int
    attack_dropped: int
    legal: frozenset[int]  # wire-flow hashes of legal-source zombies
    illegal: frozenset[int]
    verdicts: tuple[tuple[float, int, str], ...]  # attack flows only
    first_examined: dict[int, float]
    first_probe: dict[int, float]
    passes_before_probe: dict[int, int]


@functools.lru_cache(maxsize=None)
def _run(preset: str, seed: int) -> _Run:
    config = get_preset(preset).with_overrides(seed=seed)
    first_examined: dict[int, float] = {}
    first_probe: dict[int, float] = {}
    passes: dict[int, int] = {}

    def on_decision(event) -> None:
        if event.truth != "attack":
            return
        flow = event.flow
        first_examined.setdefault(flow, event.time)
        if flow in first_probe:
            return
        if event.action == "pass":
            passes[flow] = passes.get(flow, 0) + 1
        elif event.reason == "probe":
            first_probe[flow] = event.time

    bus = EventBus()
    bus.subscribe(CallbackSink(on_decision), kinds=("defense.decision",))
    result = run_experiment(config, bus=bus)
    scenario = result.scenario
    space = scenario.topology.address_space
    legal, illegal = set(), set()
    for zombie in scenario.attack.zombies:
        flow = zombie.wire_flow
        (legal if space.is_legal_source(flow.src_ip) else illegal).add(
            flow.hashed()
        )
    return _Run(
        config=config,
        alpha=result.summary.accuracy,
        attack_examined=result.summary.attack_examined,
        attack_dropped=result.summary.attack_dropped,
        legal=frozenset(legal),
        illegal=frozenset(illegal),
        verdicts=tuple(
            (now, label, verdict)
            for now, label, verdict, truth
            in scenario.defense_collector.verdicts
            if truth is FlowTruth.ATTACK
        ),
        first_examined=first_examined,
        first_probe=first_probe,
        passes_before_probe={flow: passes.get(flow, 0) for flow in first_probe},
    )


def _z(run: _Run) -> float:
    """Measured minus predicted alpha, in predicted standard deviations."""
    mafic = run.config.mafic
    pd = mafic.drop_probability
    pps = run.config.rate_bps / (8.0 * run.config.packet_size)
    in_sft = pps * mafic.probe_window(None)
    n_legal = len(run.legal)
    passes = n_legal * ((1.0 - pd) / pd + (1.0 - pd) * in_sft)
    variance = n_legal * ((1.0 - pd) / pd**2 + in_sft * pd * (1.0 - pd))
    predicted = 1.0 - passes / run.attack_examined
    return (run.alpha - predicted) / (math.sqrt(variance) / run.attack_examined)


@pytest.mark.parametrize("seed", ALPHA_SEEDS)
@pytest.mark.parametrize("preset", MODELLED)
def test_alpha_is_the_closed_form(preset, seed):
    run = _run(preset, seed)
    assert run.legal, "the model needs legal-source zombies to predict"
    assert abs(_z(run)) < 4.0


@pytest.mark.parametrize("preset", MODELLED)
def test_the_mean_z_over_seeds_is_consistent_with_zero(preset):
    zs = [_z(_run(preset, seed)) for seed in ALPHA_SEEDS]
    assert abs(sum(zs) / len(zs)) * math.sqrt(len(zs)) < 4.0


@pytest.mark.parametrize("seed", (1, 2))
def test_all_illegal_sources_drops_every_attack_packet(seed):
    run = _run("all-illegal-sources", seed)
    assert not run.legal
    assert run.attack_examined > 0
    assert run.attack_dropped == run.attack_examined
    assert run.alpha == 1.0


@pytest.mark.parametrize("seed", VERDICT_SEEDS)
@pytest.mark.parametrize("preset", PRESETS)
def test_no_attack_flow_is_judged_nice(preset, seed):
    """Each zombie is judged once, and by its source's legality alone:
    a legal one is cut by the probe, an illegal one at step 1."""
    run = _run(preset, seed)
    judged: dict[str, set[int]] = {}
    for _, flow, verdict in run.verdicts:
        judged.setdefault(verdict, set()).add(flow)
    assert set(judged) <= {"cut", "illegal_source"}
    assert len(run.verdicts) == len(run.legal) + len(run.illegal)
    assert judged.get("cut", set()) == run.legal
    assert judged.get("illegal_source", set()) == run.illegal


@pytest.mark.parametrize("seed", VERDICT_SEEDS)
@pytest.mark.parametrize("preset", PRESETS)
def test_every_cut_falls_one_probe_timer_after_admission(preset, seed):
    """A cut lands exactly W after the flow's first probe drop, and
    every examined packet before that drop passed the Pd gate.  So a
    flow admitted at its first examined packet (nine in ten) is cut at
    first arrival + W, and one that slipped k packets first is cut k
    packet gaps later."""
    run = _run(preset, seed)
    window = run.config.mafic.probe_window(None)
    cuts = [(now, flow) for now, flow, verdict in run.verdicts
            if verdict == "cut"]
    assert len(cuts) == len(run.legal)
    for now, flow in cuts:
        assert now == pytest.approx(run.first_probe[flow] + window, abs=1e-9)
        slipped = run.passes_before_probe[flow]
        if slipped == 0:
            assert run.first_probe[flow] == run.first_examined[flow]
        else:
            assert run.first_probe[flow] > run.first_examined[flow]
        assert now >= run.first_examined[flow] + window - 1e-9
