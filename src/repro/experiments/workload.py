"""Legitimate workloads: the paper's static flows and dynamic mice.

Two shapes of background traffic live here:

* the **static** workload of the paper's evaluation — ``n_tcp`` greedy
  long-lived TCP flows plus ``n_udp_legit`` constant-rate UDP flows,
  placed round-robin over the ingress subnets (the registry's
  ``paper_static`` entry, extracted from the old monolithic
  ``build_scenario``);
* **dynamic web-like mice** — Poisson arrivals of finite TCP transfers
  with heavy-tailed sizes, recording each flow's completion time so
  MAFIC's impact on user-visible latency (FCT) can be measured alongside
  the paper's packet-level metrics.

Experiment-facing workloads live in the :data:`WORKLOADS` registry: a
builder takes a :class:`WorkloadContext` and returns a
:class:`WorkloadBuild`.  New workload shapes register here and become
reachable by name (``ExperimentConfig(workload="...")``) with no edits
to the scenario composer, the config, or the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.metrics.collectors import FlowTruth
from repro.sim.packet import FlowKey
from repro.transport.tcp import TcpSender
from repro.transport.udp import CbrSender
from repro.util.registry import Registry
from repro.util.validation import (
    check_fields, check_int, check_non_negative, check_optional, check_positive,
    declared,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.scenario import BuiltScenario
    from repro.sim.topology import Topology
    from repro.util.rng import RngRegistry


@dataclass
class WorkloadContext:
    """What a workload builder gets to place legitimate traffic."""

    topology: "Topology"
    config: "ExperimentConfig"
    rngs: "RngRegistry"


@dataclass
class WorkloadBuild:
    """What a workload builder hands back to the composer."""

    tcp_senders: list[TcpSender] = field(default_factory=list)
    udp_senders: list[CbrSender] = field(default_factory=list)
    flow_truth: dict[int, FlowTruth] = field(default_factory=dict)
    # Called with the finished BuiltScenario — for workloads that need
    # the full object graph (e.g. mice registering in flow_truth live).
    finalize: "Callable[[BuiltScenario], None] | None" = None


#: Workload builders of type ``(WorkloadContext, **workload_args) ->
#: WorkloadBuild`` — the config's ``workload_args`` dict arrives as
#: keyword arguments (``web_mice`` forwards them as
#: :class:`DynamicWorkloadConfig` overrides).
WORKLOADS: "Registry[Callable[..., WorkloadBuild]]" = Registry(
    "workload"
)


@WORKLOADS.register("paper_static", aliases=("static", "paper-static"))
def build_paper_static(ctx: WorkloadContext) -> WorkloadBuild:
    """The paper's workload: n_tcp greedy TCP + n_udp_legit CBR flows,
    round-robin over the ingress subnets, started in [0, spread)."""
    topology, config, rngs = ctx.topology, ctx.config, ctx.rngs
    sim = topology.sim
    victim_host = topology.victim_host
    build = WorkloadBuild()
    src_hosts = [
        topology.hosts[f"src{i}"] for i in range(len(topology.ingress_names))
    ]
    start_rng = rngs.stream("legit", "starts")
    next_port: dict[str, int] = {}

    for i in range(config.n_tcp):
        host = src_hosts[i % len(src_hosts)]
        port = next_port.get(host.name, 1024)
        next_port[host.name] = port + 1
        flow = FlowKey(host.address, victim_host.address, port, config.victim_port)
        sender = TcpSender(
            sim,
            host,
            flow,
            packet_size=config.packet_size,
            ssthresh=config.tcp_max_cwnd,
            max_cwnd=config.tcp_max_cwnd,
        )
        host.bind_port(port, sender)
        start = float(start_rng.random()) * config.legit_start_spread
        sender.start(at=start)
        build.tcp_senders.append(sender)
        build.flow_truth[flow.hashed()] = FlowTruth.TCP_LEGIT

    for i in range(config.n_udp_legit):
        host = src_hosts[(config.n_tcp + i) % len(src_hosts)]
        port = next_port.get(host.name, 1024)
        next_port[host.name] = port + 1
        flow = FlowKey(host.address, victim_host.address, port, config.udp_port)
        sender = CbrSender(
            sim,
            host,
            flow,
            rate_bps=config.legit_rate_bps,
            packet_size=config.packet_size,
            is_attack=False,
            jitter=0.05,
            # Per-flow stream: nothing else draws from it during the
            # run, so departure times batch into series chunks.
            rng=rngs.stream("legit", "udp", i),
            exclusive_rng=True,
        )
        host.bind_port(port, sender)
        start = float(start_rng.random()) * config.legit_start_spread
        sender.start(at=start)
        build.udp_senders.append(sender)
        build.flow_truth[flow.hashed()] = FlowTruth.UDP_LEGIT

    return build


@WORKLOADS.register("web_mice", aliases=("web-mice", "mice"))
def build_web_mice(ctx: WorkloadContext, **overrides) -> WorkloadBuild:
    """The static workload plus Poisson web mice: churning short TCP
    transfers whose completion times surface MAFIC's latency cost.

    ``workload_args`` keys override :class:`DynamicWorkloadConfig`
    fields (``arrival_rate``, ``mean_segments``, ...).
    """
    build = build_paper_static(ctx)
    params = dict(
        tcp_max_cwnd=ctx.config.tcp_max_cwnd,
        packet_size=ctx.config.packet_size,
    )
    params.update(overrides)
    mice = DynamicWorkload(
        DynamicWorkloadConfig(**params),
        rng=ctx.rngs.stream("workload", "mice"),
    )

    def finalize(scenario: "BuiltScenario") -> None:
        mice.install(scenario)
        scenario.mice = mice

    build.finalize = finalize
    return build


@dataclass(frozen=True)
class DynamicWorkloadConfig:
    """Shape of the mice population."""

    arrival_rate: float = declared(10.0, check_positive)  # transfers/s, domain-wide
    mean_segments: int = declared(12, check_int, 1)  # geometric mean transfer size
    max_segments: int = declared(200, check_int, 1)  # tail cap
    start_time: float = declared(0.2, check_non_negative)
    # None = arrivals until the run ends
    stop_time: float | None = declared(None, check_optional, check_non_negative)
    tcp_max_cwnd: float = declared(6.0, check_positive)
    packet_size: int = declared(1000, check_int, 1)
    base_port: int = declared(30000, check_int, 0, 0xFFFF)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.max_segments < self.mean_segments:
            raise ValueError("max_segments must be >= mean_segments")
        if self.stop_time is not None and self.stop_time < self.start_time:
            raise ValueError("stop_time must be >= start_time")


@dataclass
class TransferRecord:
    """One mouse's lifecycle."""

    flow: FlowKey
    size_segments: int
    started_at: float
    completed_at: float | None = None

    @property
    def completion_time(self) -> float | None:
        """FCT in seconds, or None while in flight / never finished."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


class DynamicWorkload:
    """Spawns mice across the domain's source hosts.

    Wire into a built scenario with :meth:`install`; afterwards
    :attr:`records` holds every transfer with its completion time.
    Transfers register themselves in the scenario's ``flow_truth`` as
    well-behaved TCP, so the paper metrics account for them too.
    """

    def __init__(self, config: DynamicWorkloadConfig, rng) -> None:
        self.config = config
        self._rng = rng
        self.records: list[TransferRecord] = []
        self._next_port = config.base_port
        self._installed = False
        self._scenario: "BuiltScenario | None" = None

    def install(self, scenario: "BuiltScenario") -> None:
        """Arm Poisson arrivals on the scenario's clock."""
        if self._installed:
            raise RuntimeError("workload already installed")
        self._installed = True
        self._scenario = scenario
        gap = float(self._rng.exponential(1.0 / self.config.arrival_rate))
        scenario.sim.schedule_at(self.config.start_time + gap, self._spawn)

    # ------------------------------------------------------------ internals

    def _draw_size(self) -> int:
        """Geometric transfer sizes: many mice, a heavy-ish tail."""
        p = 1.0 / self.config.mean_segments
        size = 1 + int(self._rng.geometric(p)) - 1
        return max(1, min(self.config.max_segments, size))

    def _spawn(self) -> None:
        scenario = self._scenario
        config = self.config
        now = scenario.sim.now
        if config.stop_time is not None and now >= config.stop_time:
            return
        topology: "Topology" = scenario.topology
        hosts = [
            topology.hosts[f"src{i}"]
            for i in range(len(topology.ingress_names))
        ]
        host = hosts[int(self._rng.integers(len(hosts)))]
        port = self._next_port
        self._next_port += 1
        flow = FlowKey(
            host.address,
            topology.victim_host.address,
            port,
            scenario.config.victim_port,
        )
        size = self._draw_size()
        record = TransferRecord(flow=flow, size_segments=size, started_at=now)
        self.records.append(record)

        def finished(at: float, record=record, host=host, port=port) -> None:
            record.completed_at = at
            host.unbind_port(port)

        sender = TcpSender(
            scenario.sim,
            host,
            flow,
            packet_size=config.packet_size,
            ssthresh=config.tcp_max_cwnd,
            max_cwnd=config.tcp_max_cwnd,
            total_segments=size,
            on_complete=finished,
        )
        host.bind_port(port, sender)
        sender.start()

        scenario.flow_truth[flow.hashed()] = FlowTruth.TCP_LEGIT
        scenario.defense_collector.flow_truth[flow.hashed()] = FlowTruth.TCP_LEGIT

        gap = float(self._rng.exponential(1.0 / config.arrival_rate))
        scenario.sim.schedule(gap, self._spawn)

    # ------------------------------------------------------------- results

    def completed(self) -> list[TransferRecord]:
        """Transfers that finished."""
        return [r for r in self.records if r.completed_at is not None]

    def unfinished(self) -> list[TransferRecord]:
        """Transfers still in flight when the run ended."""
        return [r for r in self.records if r.completed_at is None]

    def completion_times(self) -> list[float]:
        """All FCTs, in seconds."""
        return [r.completion_time for r in self.completed()]

    def mean_fct(self) -> float:
        """Mean FCT over completed transfers (0 when none)."""
        times = self.completion_times()
        return sum(times) / len(times) if times else 0.0

    def fct_percentile(self, q: float) -> float:
        """The q-th percentile FCT (q in [0, 100]; 0 when none)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        times = sorted(self.completion_times())
        if not times:
            return 0.0
        index = min(len(times) - 1, int(round(q / 100.0 * (len(times) - 1))))
        return times[index]
