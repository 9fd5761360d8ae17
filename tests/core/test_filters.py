"""Tests for repro.core.filters (RFC 2827 ingress filtering)."""

import pytest

from repro.core.filters import IngressFilter
from repro.obs import BufferedSink, EventBus
from repro.sim.address import Subnet
from repro.sim.packet import FlowKey, Packet, PacketType
from tests.metrics.victim_reference import count_arrivals

SUBNET = Subnet(0x0A000000, 24)


def pkt(src, ptype=PacketType.DATA):
    return Packet(flow=FlowKey(src, 0x0A630001, 1000, 80), ptype=ptype)


class TestIngressFilter:
    def test_in_subnet_source_passes(self):
        f = IngressFilter([SUBNET])
        assert f.on_packet(pkt(0x0A000005), None, 0.0)
        assert f.packets_dropped == 0

    def test_out_of_subnet_source_dropped(self):
        f = IngressFilter([SUBNET])
        assert not f.on_packet(pkt(0x0B000005), None, 0.0)
        assert f.packets_dropped == 1

    def test_multiple_subnets(self):
        other = Subnet(0x0A010000, 24)
        f = IngressFilter([SUBNET, other])
        assert f.on_packet(pkt(0x0A010009), None, 0.0)

    def test_non_data_untouched(self):
        f = IngressFilter([SUBNET])
        assert f.on_packet(pkt(0x0B000005, ptype=PacketType.ACK), None, 0.0)
        assert f.packets_checked == 0

    def test_drop_fraction(self):
        f = IngressFilter([SUBNET])
        f.on_packet(pkt(0x0A000001), None, 0.0)
        f.on_packet(pkt(0x0B000001), None, 0.0)
        assert f.drop_fraction == pytest.approx(0.5)

    def test_drop_fraction_empty(self):
        assert IngressFilter([SUBNET]).drop_fraction == 0.0

    def test_requires_subnet(self):
        with pytest.raises(ValueError):
            IngressFilter([])


class TestScenarioIntegration:
    def test_filtering_blocks_cross_subnet_spoofing(self):
        from repro.attacks.spoofing import SpoofMode, SpoofingModel
        from repro.experiments.config import ExperimentConfig, TopologyKind
        from repro.experiments.runner import run_experiment

        bus = EventBus()
        arrivals = bus.subscribe(BufferedSink(), kinds=("victim.arrival",))
        run = run_experiment(
            ExperimentConfig(
                total_flows=10, n_routers=8, duration=3.0,
                topology=TopologyKind.STAR, seed=71,
                ingress_filtering=True,
                spoofing=SpoofingModel(mode=SpoofMode.LEGIT_SUBNET),
                defense=__import__(
                    "repro.experiments.config", fromlist=["DefenseKind"]
                ).DefenseKind.NONE,
            ),
            bus=bus,
        )
        filters = run.scenario.ingress_filters
        assert filters
        # Cross-subnet spoofed floods die at the ingress even undefended.
        total_dropped = sum(f.packets_dropped for f in filters.values())
        assert total_dropped > 100
        # Legit TCP (true sources) passes the filter.
        _, legit = count_arrivals(arrivals.events, 0.0, run.config.duration)
        assert legit > 100

    def test_no_filters_by_default(self):
        from repro.experiments.config import ExperimentConfig, TopologyKind
        from repro.experiments.scenario import build_scenario

        sc = build_scenario(
            ExperimentConfig(
                total_flows=6, n_routers=6, duration=2.5,
                topology=TopologyKind.STAR, seed=72,
            )
        )
        assert sc.ingress_filters == {}
