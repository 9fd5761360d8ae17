"""Named experiment presets.

Curated configurations for the regimes this repository discusses, so
users (and the CLI) can reproduce them by name instead of reconstructing
parameter sets from the docs.
"""

from __future__ import annotations

from typing import Callable

from repro.attacks.spoofing import SpoofMode, SpoofingModel
from repro.core.config import MaficConfig
from repro.experiments.config import DefenseKind, ExperimentConfig
from repro.util.validation import check_int


def paper_default() -> ExperimentConfig:
    """Table II as published: Vt=50, Pd=90%, Γ=95%, N=40, R=1 Mbps."""
    return ExperimentConfig()


def heavy_attack() -> ExperimentConfig:
    """An attack-dominated mix (the paper's implied regime for Fig 4):
    60% zombies — β lands in the paper's 90-95% band here."""
    return ExperimentConfig(attack_fraction=0.6)


def low_rate_probe() -> ExperimentConfig:
    """Fig 3(b)'s weakest point: 100 kbps zombies.  Below threshold
    detection, so the victim's explicit notification triggers the ATRs."""
    return ExperimentConfig(rate_bps=100e3, force_activation_at=1.25)


def all_illegal_sources() -> ExperimentConfig:
    """One spoofing extreme: every attack source illegal/unreachable —
    the PDT legality shortcut does all the work."""
    return ExperimentConfig(spoofing=SpoofingModel(mode=SpoofMode.ILLEGAL))


def all_legal_spoofing() -> ExperimentConfig:
    """The other extreme: every spoofed source is a valid subnet address
    — only the probe verdicts can tell attack from legitimate."""
    return ExperimentConfig(
        spoofing=SpoofingModel(mode=SpoofMode.LEGIT_SUBNET)
    )


def rotation_stress() -> ExperimentConfig:
    """Per-packet source rotation: one-packet flows defeat per-flow
    state; suppression degrades to the Bernoulli(Pd) gate.  SFT capped
    so the stress also exercises eviction."""
    return ExperimentConfig(
        spoofing=SpoofingModel(mode=SpoofMode.LEGIT_SUBNET, rotate_per_packet=True),
        mafic=MaficConfig(max_sft_entries=512),
    )


def pulsing_stress() -> ExperimentConfig:
    """Shrew-style on-off zombies with NFT re-probing enabled as the
    countermeasure."""
    return ExperimentConfig(
        pulsing_attack=True, pulse_on=0.25, pulse_off=0.25,
        mafic=MaficConfig(renotice_interval=0.75),
    )


def filtered_domain() -> ExperimentConfig:
    """RFC 2827 ingress filtering everywhere, MAFIC layered on top.

    ``LEGIT_SUBNET`` spoofs into *any* allocated subnet, so about 19 of
    20 zombies die at their own ingress filter and MAFIC never activates
    at full size (seeds 1-3): this measures the filter, not MAFIC."""
    return ExperimentConfig(
        ingress_filtering=True,
        spoofing=SpoofingModel(mode=SpoofMode.LEGIT_SUBNET),
    )


def realistic_control_plane() -> ExperimentConfig:
    """Pushback requests travel the control path instead of arriving
    instantly."""
    return ExperimentConfig(control_latency=True)


def proportional_baseline() -> ExperimentConfig:
    """The authors' earlier proportionate dropper [2] on the default
    scenario — the collateral-damage comparison point."""
    return ExperimentConfig(defense=DefenseKind.PROPORTIONAL)


def multi_tier_domain() -> ExperimentConfig:
    """ATRs at two depths behind aggregation routers: pushback requests
    travel unequal control paths, so near and far ingresses activate at
    different times (control-plane latency modelled)."""
    return ExperimentConfig(topology="multi_tier", control_latency=True)


def pulse_train() -> ExperimentConfig:
    """Deterministic duty-cycled zombies (exact 0.25 s on / 0.25 s off
    square wave) aimed at the verdict-timer weakness; NFT re-probing
    enabled as the countermeasure."""
    return ExperimentConfig(
        attack="pulse_train", pulse_on=0.25, pulse_off=0.25,
        mafic=MaficConfig(renotice_interval=0.75),
    )


def huge_topology(scale: int = 8) -> ExperimentConfig:
    """Table II scaled up ``scale``x in population: a memory and
    throughput proof-point, not a paper figure.

    ``scale`` multiplies the host/zombie population (``total_flows``)
    and widens the domain; the attack mix, rates, and MAFIC parameters
    stay at their Table-II values so per-flow behaviour is unchanged —
    only the aggregate grows.  ``trace_enabled=False`` and
    ``streaming_series=True`` change nothing a run computes (see the
    fields' comment in ``config.py``); they stay set only because they
    are part of the pinned config hash.

    At ``scale=8`` MAFIC never activates (seeds 1-3); a run that must
    exercise it sets ``force_activation_at``, as the ledger's
    ``scale_8x`` does.
    """
    check_int("scale", scale, 1)
    return ExperimentConfig(
        total_flows=50 * scale,
        n_routers=min(40 * scale, 320),
        duration=3.0,
        trace_enabled=False,
        streaming_series=True,
    )


def red_ratelimit() -> ExperimentConfig:
    """RED on the ingress uplinks plus per-ATR aggregate rate limiting —
    the queueing-level defence, for comparison against per-flow MAFIC."""
    return ExperimentConfig(defense="red_rate_limit")


PRESETS: dict[str, Callable[[], ExperimentConfig]] = {
    "paper-default": paper_default,
    "heavy-attack": heavy_attack,
    "low-rate-probe": low_rate_probe,
    "all-illegal-sources": all_illegal_sources,
    "all-legal-spoofing": all_legal_spoofing,
    "rotation-stress": rotation_stress,
    "pulsing-stress": pulsing_stress,
    "filtered-domain": filtered_domain,
    "realistic-control-plane": realistic_control_plane,
    "proportional-baseline": proportional_baseline,
    "multi-tier-domain": multi_tier_domain,
    "pulse-train": pulse_train,
    "red-ratelimit": red_ratelimit,
    "huge-topology": huge_topology,
}


def get_preset(name: str) -> ExperimentConfig:
    """Build the named preset's config (raises KeyError on unknown)."""
    try:
        factory = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; known: {known}") from None
    return factory()
