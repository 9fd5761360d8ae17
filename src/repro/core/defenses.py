"""Defence lines: the pluggable "what runs at the ATRs" component.

A defence builder receives a :class:`DefenseContext` (the built topology
plus the experiment config, RNG registry, and metrics observer)
and returns the per-ingress :class:`~repro.core.mafic.MaficAgent` map it
installed.  The agent is the shared chassis — flow tables, activation
timers, head-hook plumbing — and each defence differs in the
:class:`~repro.core.policy.DropPolicy` it runs and in any substrate it
installs (e.g. swapping link queues for RED).

Experiment-facing defences live in the :data:`DEFENSES` registry.  New
defence variants register here and become reachable by name
(``ExperimentConfig(defense="...")``) with no edits to the scenario
composer, the config, or the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.config import MaficConfig
from repro.core.mafic import MaficAgent
from repro.core.policy import (
    AggregateRateLimitPolicy,
    DropPolicy,
    ProportionalDropPolicy,
)
from repro.sim.queues import REDQueue
from repro.util.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentConfig
    from repro.metrics.collectors import DefenseMetricsCollector
    from repro.sim.topology import Topology
    from repro.util.rng import RngRegistry


@dataclass
class DefenseContext:
    """Everything a defence builder may wire against."""

    topology: "Topology"
    config: "ExperimentConfig"
    rngs: "RngRegistry"
    collector: "DefenseMetricsCollector"


#: Defence builders of type ``(DefenseContext, **defense_args) ->
#: dict[str, MaficAgent]`` (one agent per ingress it defends; empty for
#: the undefended control).  The config's ``defense_args`` dict arrives
#: as keyword arguments.
DEFENSES: "Registry[Callable[..., dict[str, MaficAgent]]]" = (
    Registry("defense")
)

#: ``(config, rng) -> DropPolicy``; ``None`` in its place means the
#: agent builds MAFIC's own adaptive probing policy.
PolicyFactory = Callable[["ExperimentConfig", object], DropPolicy]


def install_agent_line(
    ctx: DefenseContext,
    policy_factory: PolicyFactory | None,
    adaptive: bool,
) -> dict[str, MaficAgent]:
    """Put one agent at every ingress uplink (counting hooks run first).

    ``adaptive=False`` strips the PDT legality shortcut and probing —
    baselines drop blindly; those belong to MAFIC alone.
    """
    topology, config = ctx.topology, ctx.config
    victim_subnet = topology.subnet_of_router[topology.victim_router_name]
    agents: dict[str, MaficAgent] = {}
    for name in topology.ingress_names:
        router = topology.routers[name]
        agent_rng = ctx.rngs.stream("mafic", name)
        agent = MaficAgent(
            topology.sim,
            router,
            victim_matcher=victim_subnet.contains,
            config=config.mafic,
            rng=agent_rng,
            address_space=topology.address_space,
            policy=(
                policy_factory(config, agent_rng)
                if policy_factory is not None
                else None
            ),
            observer=ctx.collector,
        )
        if not adaptive:
            agent.config = MaficConfig(
                drop_probability=config.mafic.drop_probability,
                drop_illegal_sources=False,
            )
        # Counting first (arrival view), then the dropper.
        topology.ingress_uplink(name).add_head_hook(agent)
        agents[name] = agent
    return agents


@DEFENSES.register("mafic")
def _build_mafic(ctx: DefenseContext) -> dict[str, MaficAgent]:
    """MAFIC as published: adaptive Bernoulli(Pd) probing with per-flow
    verdicts and the PDT legality shortcut."""
    return install_agent_line(ctx, None, adaptive=True)


@DEFENSES.register("proportional")
def _build_proportional(ctx: DefenseContext) -> dict[str, MaficAgent]:
    """The authors' earlier proportionate dropper [2]: every victim-bound
    packet dropped with probability Pd, no probing, no memory."""
    return install_agent_line(
        ctx,
        lambda config, rng: ProportionalDropPolicy(
            config.mafic.drop_probability, rng
        ),
        adaptive=False,
    )


@DEFENSES.register("rate_limit", aliases=("rate-limit", "ratelimit"))
def _build_rate_limit(ctx: DefenseContext) -> dict[str, MaficAgent]:
    """Pushback-style aggregate rate limiting: admit the victim-bound
    aggregate up to a per-ATR token-bucket budget, drop the excess."""
    return install_agent_line(
        ctx,
        lambda config, rng: AggregateRateLimitPolicy(config.rate_limit_bps),
        adaptive=False,
    )


@DEFENSES.register("none", aliases=("off", "undefended"))
def _build_none(ctx: DefenseContext) -> dict[str, MaficAgent]:
    """Undefended control: no agents, nothing dropped."""
    return {}


@DEFENSES.register("red_rate_limit", aliases=("red-rate-limit", "red"))
def _build_red_rate_limit(
    ctx: DefenseContext,
    min_thresh: float | None = None,
    max_thresh: float | None = None,
) -> dict[str, MaficAgent]:
    """RED on the ingress uplinks plus aggregate rate limiting: early
    random drops shave standing queues while the token bucket caps the
    victim-bound aggregate — the classic queueing-level answer, kept as
    a baseline against MAFIC's per-flow verdicts.  ``defense_args`` may
    pin the RED thresholds instead of the capacity-derived defaults."""
    capacity = ctx.config.queue_capacity
    if min_thresh is None:
        min_thresh = max(2.0, 0.05 * capacity)
    if max_thresh is None:
        max_thresh = max(min_thresh * 3.0, 0.25 * capacity)
    for name in ctx.topology.ingress_names:
        ctx.topology.ingress_uplink(name).queue = REDQueue(
            capacity=capacity,
            min_thresh=min_thresh,
            max_thresh=max_thresh,
            rng=ctx.rngs.stream("red", name),
        )
    return install_agent_line(
        ctx,
        lambda config, rng: AggregateRateLimitPolicy(config.rate_limit_bps),
        adaptive=False,
    )
