"""Integration tests for the three registry-born scenario families:
multi-tier topology, pulse-train attack, RED+rate-limit defence.

Each family gets a small-scale end-to-end run; that worker processes
reproduce their serial summaries bit-for-bit is pinned with the other
seeds-only campaigns in ``tests/campaign/test_pool.py``.
"""

import networkx as nx

from repro.experiments.presets import get_preset
from repro.experiments.runner import run_experiment
from repro.sim.queues import REDQueue
from repro.transport.udp import OnOffSender


def small(name, **overrides):
    defaults = dict(total_flows=10, n_routers=10, duration=2.5, seed=7)
    defaults.update(overrides)
    return get_preset(name).with_overrides(**defaults)


class TestMultiTierDomain:
    def test_ingresses_at_two_depths(self):
        result = run_experiment(small("multi-tier-domain"))
        topology = result.scenario.topology
        depths = {
            nx.shortest_path_length(topology.graph, name, "lasthop")
            for name in topology.ingress_names
        }
        assert len(depths) >= 2, "expected ATRs at two distances"

    def test_agents_on_both_tiers_and_traffic_flows(self):
        result = run_experiment(small("multi-tier-domain"))
        scenario = result.scenario
        assert set(scenario.agents) == set(scenario.topology.ingress_names)
        assert (scenario.tcp_sink.packets_received
                + scenario.udp_sink.packets_received) > 0


class TestPulseTrain:
    def test_zombies_are_deterministic_on_off(self):
        result = run_experiment(small("pulse-train"))
        senders = [z.sender for z in result.scenario.attack.zombies]
        assert senders
        assert all(isinstance(s, OnOffSender) for s in senders)
        assert all(s.deterministic for s in senders)

    def test_attack_pulses_rather_than_floods(self):
        config = small("pulse-train")
        pulsed = run_experiment(config)
        flood = run_experiment(config.with_overrides(attack="flood"))
        sent_pulsed = pulsed.scenario.attack.total_attack_packets_sent()
        sent_flood = flood.scenario.attack.total_attack_packets_sent()
        assert sent_pulsed > 0
        # A 50% duty cycle emits roughly half the flood volume.
        assert sent_pulsed < 0.75 * sent_flood


class TestRedRateLimit:
    def test_red_queues_installed_at_ingress_uplinks(self):
        result = run_experiment(small("red-ratelimit"))
        topology = result.scenario.topology
        for name in topology.ingress_names:
            assert isinstance(topology.ingress_uplink(name).queue, REDQueue)

    def test_rate_limit_policy_cuts_traffic(self):
        from repro.core.policy import AggregateRateLimitPolicy

        result = run_experiment(small("red-ratelimit"))
        agents = result.scenario.agents
        assert agents and all(
            isinstance(agent.policy, AggregateRateLimitPolicy)
            for agent in agents.values()
        )
        summary = result.summary
        assert summary.total_examined > 0
