"""Tests for SFT/PDT capacity bounds and eviction."""

import numpy as np
import pytest

from repro.core.config import MaficConfig
from repro.core.labels import FlowLabel, label_of_packet
from repro.core.mafic import MaficAgent
from repro.core.tables import FlowTables, SftEntry
from repro.sim.address import AddressSpace
from repro.sim.node import Router
from repro.sim.packet import FlowKey, Packet
from repro.util.stats import WindowedCount

VICTIM_IP = 0x0A630001


def victim_packet(src_ip=0x0A000005, src_port=5000, seq=0):
    return Packet(flow=FlowKey(src_ip, VICTIM_IP, src_port, 80), seq=seq)


def bounded_agent(sim, max_sft=0, max_pdt=0, space=None):
    return MaficAgent(
        sim,
        Router(sim, "atr"),
        victim_matcher=lambda ip: ip == VICTIM_IP,
        config=MaficConfig(
            drop_probability=1.0,
            default_rtt=0.1,
            max_sft_entries=max_sft,
            max_pdt_entries=max_pdt,
        ),
        rng=np.random.default_rng(0),
        address_space=space,
    )


class TestTableEviction:
    def test_evict_oldest_sft_order(self):
        t = FlowTables()
        for i in range(3):
            t.admit_suspicious(
                SftEntry(
                    label=FlowLabel(i), probe_started=float(i),
                    deadline=float(i) + 1, baseline_rate=1.0,
                    monitor=WindowedCount(0.5),
                )
            )
        evicted = t.evict_oldest_sft()
        assert evicted.label == FlowLabel(0)
        assert t.counters.sft_evictions == 1

    def test_evict_empty_returns_none(self):
        t = FlowTables()
        assert t.evict_oldest_sft() is None
        assert t.evict_oldest_pdt() is None

    def test_evict_oldest_pdt_order(self):
        t = FlowTables()
        for i in range(3):
            t.condemn(FlowLabel(i), "unresponsive")
        assert t.evict_oldest_pdt() == FlowLabel(0)


class TestAgentSftCap:
    def test_sft_never_exceeds_cap(self, sim):
        agent = bounded_agent(sim, max_sft=4)
        agent.activate(0.0)
        for port in range(20):
            agent.on_packet(victim_packet(src_port=1000 + port), None, 0.01 * port)
        assert len(agent.tables.sft) <= 4
        total = sum(
            a.counters.sft_evictions for a in [agent.tables]
        )
        assert total >= 16

    def test_evicted_flow_verdict_event_cancelled(self, sim):
        agent = bounded_agent(sim, max_sft=1)
        agent.activate(0.0)
        agent.on_packet(victim_packet(src_port=1000), None, 0.01)
        agent.on_packet(victim_packet(src_port=2000), None, 0.02)
        # First flow evicted; its verdict event must not fire.
        sim.run(until=1.0)
        assert agent.stats.verdicts_nice + agent.stats.verdicts_cut <= 1

    def test_unbounded_by_default(self, sim):
        agent = bounded_agent(sim, max_sft=0)
        agent.activate(0.0)
        for port in range(30):
            agent.on_packet(victim_packet(src_port=1000 + port), None, 0.01 * port)
        assert len(agent.tables.sft) == 30


class TestAgentPdtCap:
    def test_pdt_cap_via_illegal_sources(self, sim):
        space = AddressSpace()
        space.allocate_subnet(24)
        agent = bounded_agent(sim, max_pdt=3, space=space)
        agent.activate(0.0)
        for i in range(10):
            bad = victim_packet(src_ip=0xC8010000 + i, src_port=3000 + i)
            agent.on_packet(bad, None, 0.01 * i)
        assert len(agent.tables.pdt) <= 3
        assert agent.tables.counters.pdt_evictions >= 7

    def test_evicted_pdt_flow_reprobed_not_free(self, sim):
        """After eviction a condemned flow is unknown again: it faces the
        gate (and re-probing), not a free pass."""
        space = AddressSpace()
        space.allocate_subnet(24)
        agent = bounded_agent(sim, max_pdt=1, space=space)
        agent.activate(0.0)
        first = victim_packet(src_ip=0xC8010001, src_port=3001)
        second = victim_packet(src_ip=0xC8010002, src_port=3002)
        agent.on_packet(first, None, 0.01)
        agent.on_packet(second, None, 0.02)  # evicts first
        assert label_of_packet(first) not in agent.tables.pdt
        # First flow's next packet is still dropped (illegal source again).
        assert not agent.on_packet(
            victim_packet(src_ip=0xC8010001, src_port=3001, seq=1), None, 0.03
        )


class TestConfigValidation:
    def test_negative_caps_rejected(self):
        with pytest.raises(ValueError):
            MaficConfig(max_sft_entries=-1)
        with pytest.raises(ValueError):
            MaficConfig(max_pdt_entries=-1)
