"""Attack scenarios: placing and scheduling zombies across the domain.

A scenario takes a built :class:`~repro.sim.topology.Topology`, a zombie
count, and per-zombie behaviour, and instantiates the zombies on source
hosts spread over the ingress routers (round-robin by default, or
concentrated on a subset — the paper's ATR identification only flags
ingresses that actually carry attack flows).

Experiment-facing attacks live in the :data:`ATTACKS` registry: each
entry turns an :class:`~repro.experiments.config.ExperimentConfig` into
an (unscheduled) :class:`AttackScenario`.  New attack shapes register
here and become reachable by name (``ExperimentConfig(attack="...")``)
with no edits to the scenario composer, the config, or the CLI.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.attacks.zombie import Zombie, ZombieConfig
from repro.util.registry import Registry
from repro.util.validation import (
    check_fields, check_int, check_non_negative, check_optional, check_type, declared,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentConfig
    from repro.sim.topology import Topology

#: Attack builders of type ``(Topology, ExperimentConfig, rng,
#: **attack_args) -> AttackScenario`` — the config's ``attack_args``
#: dict arrives as keyword arguments.  The composer schedules the
#: returned scenario.
ATTACKS: "Registry[Callable[..., AttackScenario]]" = Registry("attack")


@dataclass
class AttackScenarioConfig:
    """How many zombies, where, and when."""

    n_zombies: int = declared(10, check_int, 0)
    zombie: ZombieConfig = declared(check_type, ZombieConfig, factory=ZombieConfig)
    start_time: float = declared(1.0, check_non_negative)
    # None = never stops
    stop_time: float | None = declared(None, check_optional, check_non_negative)
    ingress_subset: list[str] | None = declared(  # None = all ingresses
        None, check_optional, check_type, (list, tuple)
    )
    start_jitter: float = declared(0.05, check_non_negative)  # uniform start spread, s

    def __post_init__(self) -> None:
        check_fields(self)
        if self.stop_time is not None and self.stop_time < self.start_time:
            raise ValueError("stop_time must be >= start_time")


class AttackScenario:
    """Instantiated zombies plus their schedule."""

    def __init__(
        self,
        topology: "Topology",
        config: AttackScenarioConfig,
        victim_port: int,
        rng,
    ) -> None:
        self.topology = topology
        self.config = config
        self.zombies: list[Zombie] = []
        victim_ip = topology.victim_host.address

        self._ingress_names = ingress_names = (
            config.ingress_subset
            if config.ingress_subset is not None
            else list(topology.ingress_names)
        )
        if config.n_zombies > 0 and not ingress_names:
            raise ValueError("no ingress routers available for zombies")
        for name in ingress_names:
            if name not in topology.ingress_names:
                raise ValueError(f"unknown ingress router: {name}")

        # Every zombie draws from this one shared stream (tick jitter,
        # rotating spoofers, on-off phases), interleaved in event order.
        for i in range(config.n_zombies):
            ingress = ingress_names[i % len(ingress_names)]
            host_name = f"src{topology.ingress_names.index(ingress)}"
            host = topology.hosts[host_name]
            zombie = Zombie(
                sim=topology.sim,
                host=host,
                victim_ip=victim_ip,
                victim_port=victim_port,
                config=config.zombie,
                address_space=topology.address_space,
                rng=rng,
            )
            self.zombies.append(zombie)

        self._rng = rng
        self._scheduled = False

    @property
    def atr_ground_truth(self) -> set[str]:
        """Ingress routers that actually host zombies (the true ATR set)."""
        names = self._ingress_names
        return {names[i % len(names)] for i in range(len(self.zombies))}

    def attack_flow_hashes(self) -> set[int]:
        """Wire-flow hashes of stable-source zombies (rotators excluded)."""
        return {
            z.wire_flow.hashed() for z in self.zombies if not z.rotates_sources
        }

    def schedule(self) -> None:
        """Arm start (and optional stop) times on the simulator clock."""
        if self._scheduled:
            raise RuntimeError("scenario already scheduled")
        self._scheduled = True
        sim = self.topology.sim
        for zombie in self.zombies:
            jitter = (
                float(self._rng.random()) * self.config.start_jitter
                if self.config.start_jitter > 0
                else 0.0
            )
            start_at = self.config.start_time + jitter
            zombie.start(at=start_at)
            if self.config.stop_time is not None:
                sim.schedule_at(self.config.stop_time, zombie.stop)

    def total_attack_packets_sent(self) -> int:
        """Ground-truth attack volume emitted so far."""
        return sum(z.stats.packets_sent for z in self.zombies)


# --------------------------------------------------------------------------
# Registry builders: ExperimentConfig -> AttackScenario.


def _scenario(
    topology: "Topology",
    config: "ExperimentConfig",
    rng,
    zombie: ZombieConfig,
    **overrides,
) -> AttackScenario:
    """Wire one scenario, routing ``attack_args`` overrides by name.

    An override whose key is an :class:`AttackScenarioConfig` field
    (``ingress_subset``, ``stop_time``, ...) lands there; a
    :class:`ZombieConfig` field (``rate_bps``, ``jitter``, ...) replaces
    the per-zombie behaviour.  Unknown keys raise TypeError.
    """
    scenario_fields = {f.name for f in dataclasses.fields(AttackScenarioConfig)}
    zombie_fields = {f.name for f in dataclasses.fields(ZombieConfig)}
    scenario_kwargs = dict(
        n_zombies=config.n_zombies,
        start_time=config.attack_start,
    )
    zombie_overrides = {}
    for key, value in overrides.items():
        if key == "zombie":
            raise TypeError("override zombie fields directly, not 'zombie'")
        if key in scenario_fields:
            scenario_kwargs[key] = value
        elif key in zombie_fields:
            zombie_overrides[key] = value
        else:
            raise TypeError(f"unknown attack arg {key!r}")
    if zombie_overrides:
        zombie = dataclasses.replace(zombie, **zombie_overrides)
    return AttackScenario(
        topology,
        AttackScenarioConfig(zombie=zombie, **scenario_kwargs),
        victim_port=config.victim_port,
        rng=rng,
    )


@ATTACKS.register("flood")
def _build_flood(topology, config, rng, **overrides) -> AttackScenario:
    """Constant-rate UDP flood at R per zombie (Table II); honours the
    legacy ``pulsing_attack`` flag for exponential on-off bursts."""
    return _scenario(topology, config, rng, ZombieConfig(
        rate_bps=config.rate_bps,
        packet_size=config.packet_size,
        spoofing=config.spoofing,
        pulsing=config.pulsing_attack,
        mean_on=config.pulse_on,
        mean_off=config.pulse_off,
    ), **overrides)


@ATTACKS.register("pulsing", aliases=("on_off", "on-off"))
def _build_pulsing(topology, config, rng, **overrides) -> AttackScenario:
    """Shrew-style on-off zombies: exponential bursts of ``pulse_on``
    mean seconds separated by ``pulse_off`` mean seconds of silence."""
    return _scenario(topology, config, rng, ZombieConfig(
        rate_bps=config.rate_bps,
        packet_size=config.packet_size,
        spoofing=config.spoofing,
        pulsing=True,
        mean_on=config.pulse_on,
        mean_off=config.pulse_off,
    ), **overrides)


@ATTACKS.register("pulse_train", aliases=("pulse-train", "square_wave"))
def _build_pulse_train(topology, config, rng, **overrides) -> AttackScenario:
    """Deterministic duty-cycled zombies: exactly ``pulse_on`` seconds on,
    ``pulse_off`` seconds off, probing MAFIC's verdict-timer weakness (a
    flow silent across its probe window is judged responsive)."""
    return _scenario(topology, config, rng, ZombieConfig(
        rate_bps=config.rate_bps,
        packet_size=config.packet_size,
        spoofing=config.spoofing,
        pulsing=True,
        mean_on=config.pulse_on,
        mean_off=config.pulse_off,
        pulse_train=True,
    ), **overrides)
