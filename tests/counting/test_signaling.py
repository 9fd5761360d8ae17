"""Tests for repro.counting.signaling (control-plane latency)."""

import pytest

from repro.counting.pushback import PushbackRequest
from repro.counting.signaling import ControlPlane


def request(atr="ingress0", action="start", time=1.0):
    return PushbackRequest(
        time=time, atr_name=atr, victim_router="lasthop", action=action
    )


def line_graph():
    """lasthop - core - ingress0 with 10 ms links."""
    return {
        "lasthop": {"core": 0.010},
        "core": {"lasthop": 0.010, "ingress0": 0.010},
        "ingress0": {"core": 0.010},
    }


class TestInstantMode:
    def test_passthrough_dispatches_synchronously(self, sim):
        seen = []
        plane = ControlPlane(sim, line_graph(), "lasthop", seen.append,
                             instant=True)
        plane.send(request())
        assert len(seen) == 1
        assert plane.delivered[0].delivered_at == sim.now


class TestLatencyMode:
    def test_delivery_delayed_by_path(self, sim):
        seen = []
        plane = ControlPlane(
            sim, line_graph(), "lasthop",
            lambda r: seen.append((sim.now, r)),
            per_hop_processing=0.001,
        )
        plane.send(request())
        assert seen == []  # not yet delivered
        sim.run()
        delivered_at, _ = seen[0]
        # 2 links x 10 ms + 2 hops x 1 ms.
        assert delivered_at == pytest.approx(0.022)

    def test_latency_to_reports_path(self, sim):
        plane = ControlPlane(sim, line_graph(), "lasthop", lambda r: None)
        delay, hops = plane.latency_to("ingress0")
        assert delay == pytest.approx(0.020)
        assert hops == 2

    def test_latency_cached(self, sim):
        plane = ControlPlane(sim, line_graph(), "lasthop", lambda r: None)
        assert plane.latency_to("ingress0") is plane.latency_to("ingress0")

    def test_unreachable_atr_recorded_undeliverable(self, sim):
        g = line_graph()
        g["island"] = {}
        seen = []
        plane = ControlPlane(sim, g, "lasthop", seen.append)
        plane.send(request(atr="island"))
        sim.run()
        assert seen == []
        assert len(plane.undeliverable) == 1

    def test_unknown_node_undeliverable(self, sim):
        plane = ControlPlane(sim, line_graph(), "lasthop", lambda r: None)
        plane.send(request(atr="ghost"))
        assert len(plane.undeliverable) == 1

    def test_mean_latency(self, sim):
        plane = ControlPlane(sim, line_graph(), "lasthop", lambda r: None,
                             per_hop_processing=0.0)
        plane.send(request())
        plane.send(request())
        sim.run()
        assert plane.mean_latency() == pytest.approx(0.020)

    def test_mean_latency_empty(self, sim):
        plane = ControlPlane(sim, line_graph(), "lasthop", lambda r: None)
        assert plane.mean_latency() == 0.0

    def test_negative_processing_rejected(self, sim):
        with pytest.raises(ValueError):
            ControlPlane(sim, line_graph(), "lasthop", lambda r: None,
                         per_hop_processing=-1)


class TestScenarioIntegration:
    def test_control_latency_delays_activation(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiment

        # Transit-stub (the default): long enough paths that the flood
        # stands out against the window-limited TCP load.
        base = dict(total_flows=10, n_routers=10, duration=3.0, seed=67)
        instant = run_experiment(ExperimentConfig(**base))
        delayed = run_experiment(
            ExperimentConfig(**base, control_latency=True)
        )
        assert instant.activation_time is not None
        assert delayed.activation_time is not None
        assert delayed.activation_time > instant.activation_time
        # Still a working defence.
        assert delayed.summary.accuracy > 0.9
        plane = delayed.scenario.control_plane
        assert plane.mean_latency() > 0
