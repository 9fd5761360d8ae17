"""Scenario composition: topology + workload + attack + defence, wired.

:func:`build_scenario` is a thin composer over the four component
registries — :data:`~repro.sim.topology.TOPOLOGIES`,
:data:`~repro.experiments.workload.WORKLOADS`,
:data:`~repro.attacks.scenarios.ATTACKS`, and
:data:`~repro.core.defenses.DEFENSES`.  It looks each component up by
the name in :class:`ExperimentConfig` (forwarding the per-component
``*_args`` dicts as builder keyword arguments), builds them in a fixed
order
(topology, sinks, workload, attack, filtering, counting, defence,
control plane), and wires the invariant substrate: LogLog counters at
every ingress uplink and the victim access link, the TrafficMonitor
driving the PushbackCoordinator, and the coordinator's requests
activating the per-ATR agents.

Adding a scenario family means registering new components from their
home modules — this file does not change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.scenarios import ATTACKS, AttackScenario
from repro.core.defenses import DEFENSES, DefenseContext
from repro.core.filters import IngressFilter
from repro.core.mafic import MaficAgent
from repro.counting.loglog import LogLogLinkCounter
from repro.counting.pushback import PushbackCoordinator, PushbackRequest
from repro.counting.setunion import TrafficMatrixEstimator
from repro.counting.signaling import ControlPlane
from repro.experiments.config import ExperimentConfig
from repro.experiments.workload import WORKLOADS, WorkloadContext
from repro.metrics.collectors import (
    DefenseMetricsCollector,
    FlowTruth,
    StreamingVictimCollector,
)
from repro.sim.monitor import TrafficMonitor
from repro.sim.topology import TOPOLOGIES, Topology
from repro.transport.sink import AckingSink, CountingSink
from repro.transport.tcp import TcpSender
from repro.transport.udp import CbrSender
from repro.util.rng import RngRegistry

#: The β peak-measurement window ending at defence activation (seconds);
#: the after window is one probe timer (``MaficConfig.probe_window``).
DEFAULT_PRE_WINDOW = 0.2


@dataclass
class BuiltScenario:
    """Everything :func:`run_experiment` needs, assembled."""

    config: ExperimentConfig
    topology: Topology
    tcp_senders: list[TcpSender]
    udp_senders: list[CbrSender]
    attack: AttackScenario
    agents: dict[str, MaficAgent]
    estimator: TrafficMatrixEstimator
    monitor: TrafficMonitor
    coordinator: PushbackCoordinator
    defense_collector: DefenseMetricsCollector
    victim_collector: StreamingVictimCollector
    flow_truth: dict[int, FlowTruth] = field(default_factory=dict)
    tcp_sink: AckingSink | None = None
    udp_sink: CountingSink | None = None
    control_plane: ControlPlane | None = None
    ingress_filters: dict[str, IngressFilter] = field(default_factory=dict)
    # Workload attachments (e.g. the web-mice DynamicWorkload) land here.
    mice: object | None = None
    # The observability bus every layer publishes into (None = batch
    # mode, zero overhead — see repro.obs).
    bus: object | None = None

    @property
    def sim(self):
        """The underlying simulator clock."""
        return self.topology.sim


def build_scenario(
    config: ExperimentConfig,
    bus=None,
    victim_collector=None,
    series_bin_width: float = 0.05,
) -> BuiltScenario:
    """Assemble a full scenario from one config (does not run it).

    ``bus`` (an :class:`~repro.obs.bus.EventBus`) threads streaming
    observability through every layer: the collectors, the monitor, and
    the victim-side links all publish onto it; it defaults to off, the
    bit-exact zero-overhead batch path, as is a bus falsy here
    (subscribe before building).  The victim's arrivals go to a
    :class:`~repro.metrics.collectors.StreamingVictimCollector` that
    streams the Fig. 4(b) series in ``series_bin_width`` bins and the β
    windows (:data:`DEFAULT_PRE_WINDOW` before activation, one probe
    timer after it); ``victim_collector`` puts another accountant with
    the same surface in its place.
    """
    bus = bus or None  # off: producers hold None, whose test runs no frame
    rngs = RngRegistry(config.seed)
    topology = TOPOLOGIES.get(config.topology)(config, **config.topology_args)
    sim = topology.sim
    if victim_collector is None:
        victim_collector = StreamingVictimCollector(
            duration=config.duration,
            series_bin_width=series_bin_width,
            reduction_window=config.mafic.probe_window(None),
            pre_window=DEFAULT_PRE_WINDOW,
            bus=bus,
        )

    # ------------------------------------------------------------- sinks
    victim_host = topology.victim_host
    tcp_sink = AckingSink(sim, victim_host, on_packet=victim_collector.on_packet)
    udp_sink = CountingSink(sim, on_packet=victim_collector.on_packet)
    victim_host.bind_port(config.victim_port, tcp_sink)
    victim_host.bind_port(config.udp_port, udp_sink)

    # ---------------------------------------------------- legitimate flows
    workload = WORKLOADS.get(config.workload)(
        WorkloadContext(topology=topology, config=config, rngs=rngs),
        **config.workload_args,
    )
    flow_truth: dict[int, FlowTruth] = dict(workload.flow_truth)

    # -------------------------------------------------------------- attack
    attack = ATTACKS.get(config.attack)(
        topology, config, rngs.stream("attack"), **config.attack_args
    )
    attack.schedule()
    for flow_hash in attack.attack_flow_hashes():
        flow_truth[flow_hash] = FlowTruth.ATTACK

    # ------------------------------------------------- ingress filtering
    ingress_filters: dict[str, IngressFilter] = {}
    if config.ingress_filtering:
        for name in topology.ingress_names:
            subnet = topology.subnet_of_router[name]
            ingress_filter = IngressFilter([subnet])
            topology.ingress_uplink(name).add_head_hook(ingress_filter)
            ingress_filters[name] = ingress_filter

    # ------------------------------------------------ counting substrate
    estimator = TrafficMatrixEstimator()
    for name in topology.ingress_names:
        counter = LogLogLinkCounter(name, k=config.loglog_k)
        topology.ingress_uplink(name).add_head_hook(counter)
        estimator.register_ingress(counter)
    victim_counter = LogLogLinkCounter(
        topology.victim_router_name, k=config.loglog_k
    )
    topology.victim_access_link().add_head_hook(victim_counter)
    estimator.register_egress(victim_counter)

    # ------------------------------------------------------------ defence
    defense_collector = DefenseMetricsCollector(flow_truth, bus=bus)
    agents = DEFENSES.get(config.defense)(
        DefenseContext(
            topology=topology,
            config=config,
            rngs=rngs,
            collector=defense_collector,
        ),
        **config.defense_args,
    )

    # ------------------------------------------------- detection control
    def dispatch_request(request: PushbackRequest) -> None:
        agent = agents.get(request.atr_name)
        if agent is None:
            return
        now = sim.now
        if request.action == "start":
            agent.activate(now)
            victim_collector.mark_defense_activation(now)
        elif request.action == "refresh":
            agent.refresh(now)
        elif request.action == "stop":
            agent.deactivate(now)

    control_plane = ControlPlane(
        sim,
        topology.adjacency,
        topology.victim_router_name,
        dispatch_request,
        per_hop_processing=config.control_per_hop_processing,
        instant=not config.control_latency,
    )

    coordinator = PushbackCoordinator(
        victim_router=topology.victim_router_name,
        config=config.pushback,
        on_request=control_plane.send,
    )
    monitor = TrafficMonitor(
        sim,
        estimator,
        period=config.monitor_period,
        on_snapshot=coordinator.on_snapshot,
        bus=bus,
    )
    monitor.start()

    if bus:
        # Link-level drop visibility where it matters: the victim's
        # access link (congestion collapse) and every defended ingress.
        topology.victim_access_link().bus = bus
        for name in topology.ingress_names:
            topology.ingress_uplink(name).bus = bus

    if config.force_activation_at is not None and agents:
        # Model the victim's explicit DDoS notification: every ATR starts
        # at a fixed time regardless of the threshold detector.
        def _force_activation() -> None:
            now = sim.now
            victim_collector.mark_defense_activation(now)
            for agent in agents.values():
                agent.activate(now)

        sim.schedule_at(config.force_activation_at, _force_activation)

    scenario = BuiltScenario(
        config=config,
        topology=topology,
        tcp_senders=workload.tcp_senders,
        udp_senders=workload.udp_senders,
        attack=attack,
        agents=agents,
        estimator=estimator,
        monitor=monitor,
        coordinator=coordinator,
        defense_collector=defense_collector,
        victim_collector=victim_collector,
        flow_truth=flow_truth,
        tcp_sink=tcp_sink,
        udp_sink=udp_sink,
        control_plane=control_plane,
        ingress_filters=ingress_filters,
        bus=bus,
    )
    if workload.finalize is not None:
        workload.finalize(scenario)
    return scenario
