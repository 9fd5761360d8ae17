"""Cross-module property-based tests on randomized small scenarios."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig, TopologyKind
from repro.experiments.runner import run_experiment
from repro.metrics.collectors import FlowTruth


@st.composite
def small_configs(draw):
    return ExperimentConfig(
        total_flows=draw(st.integers(min_value=4, max_value=14)),
        tcp_fraction=draw(st.sampled_from([0.5, 0.75, 1.0])),
        attack_fraction=draw(st.sampled_from([0.25, 0.5])),
        n_routers=draw(st.integers(min_value=6, max_value=12)),
        duration=2.8,
        topology=draw(
            st.sampled_from([TopologyKind.STAR, TopologyKind.TRANSIT_STUB])
        ),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
    )


@settings(max_examples=8, deadline=None)
@given(small_configs())
def test_conservation_and_bounds(cfg):
    """Invariants that must hold for ANY scenario:

    1. Every examined packet is either dropped or passed.
    2. All five rates are within [0, 1].
    3. Victim arrivals of a class never exceed what that class sent.
    4. Accuracy + false-negative = 1 exactly (complementary counts).
    5. No flow label ends the run in two of an agent's SFT/NFT/PDT.
    """
    run = run_experiment(cfg)
    dc = run.scenario.defense_collector
    for truth in FlowTruth:
        counts = dc.of(truth)
        assert counts.examined == counts.dropped + counts.passed

    s = run.summary
    for value in (
        s.accuracy,
        s.traffic_reduction,
        s.false_positive_rate,
        s.false_negative_rate,
        s.legit_drop_rate,
    ):
        assert 0.0 <= value <= 1.0

    sent_attack = run.scenario.attack.total_attack_packets_sent()
    received = (run.scenario.tcp_sink.attack_packets_received
                + run.scenario.udp_sink.attack_packets_received)
    assert received <= sent_attack

    if s.attack_examined:
        assert s.accuracy + s.false_negative_rate == pytest.approx(1.0)

    for agent in run.scenario.agents.values():
        sft, nft, pdt = (
            table.keys()
            for table in (agent.tables.sft, agent.tables.nft, agent.tables.pdt)
        )
        assert not (sft & nft or sft & pdt or nft & pdt)


@settings(max_examples=4, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_determinism_under_fixed_seed(seed):
    """Two identical runs are bit-for-bit identical in their metrics."""
    cfg = ExperimentConfig(
        total_flows=8, n_routers=8, duration=2.6,
        topology=TopologyKind.STAR, seed=seed,
    )
    assert run_experiment(cfg).fingerprint() == run_experiment(cfg).fingerprint()
