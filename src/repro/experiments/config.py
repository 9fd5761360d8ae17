"""Experiment configuration: Table II defaults plus the workload model.

The paper's Table II gives: Pd = 90%, R = 1e6, Vt = 50 flows, Γ = 95%,
N = 40 routers.  Two interpretation notes (also in DESIGN.md):

* **R** is taken as the per-source sending rate in bits/s (Fig. 3(b)'s
  axis runs "100kbps to 1Mbps"), not 1e6 packets/s.
* **Γ** is the fraction of *legitimate* flows that are responsive TCP;
  the remainder are legitimate but unresponsive (UDP-style) flows — the
  collateral-damage zone the paper discusses.  Attack flows are counted
  separately via ``attack_fraction`` (they mimic TCP on the wire but
  never respond, which is exactly the paper's threat model).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, replace
from enum import Enum

from repro.attacks.scenarios import ATTACKS
from repro.attacks.spoofing import SpoofingModel, SpoofMode
from repro.core.config import MaficConfig
from repro.core.defenses import DEFENSES
from repro.counting.pushback import PushbackPolicyConfig
from repro.experiments.workload import WORKLOADS
from repro.sim.topology import TOPOLOGIES
from repro.util.hashing import sha256
from repro.util.registry import Registry
from repro.util.validation import (
    check_bool, check_fields, check_fraction, check_int, check_non_negative,
    check_optional, check_positive, check_seed, check_type, declared, from_fields,
)


class _ComponentKind(str, Enum):
    """Base for the legacy component enums.

    The ``topology``/``defense`` fields are registry-validated *names*
    now; these enums survive for back-compat.  Members compare and hash
    as their string value, so ``TopologyKind.STAR == "star"`` and either
    spelling works as a registry key or dict key.
    """

    __hash__ = str.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class TopologyKind(_ComponentKind):
    """Legacy names for the built-in topologies (see ``TOPOLOGIES``)."""

    STAR = "star"
    TREE = "tree"
    TRANSIT_STUB = "transit_stub"


class DefenseKind(_ComponentKind):
    """Legacy names for the built-in defences (see ``DEFENSES``)."""

    MAFIC = "mafic"
    PROPORTIONAL = "proportional"  # the [2] baseline
    RATE_LIMIT = "rate_limit"  # aggregate pushback baseline
    NONE = "none"  # undefended control


def _check_component(name: str, value, registry: Registry, enum_cls=None):
    """Canonicalise a component name against its registry.

    Returns the legacy enum member when one exists for the name (so
    ``config.defense is DefenseKind.MAFIC`` keeps holding) and the plain
    canonical string for components registered after these enums froze.
    Unknown names raise ``UnknownComponentError`` listing what exists.
    """
    canonical = registry.canonical(value)
    if enum_cls is not None:
        try:
            return enum_cls(canonical)
        except ValueError:
            pass
    return canonical


def _check_args(name: str, value) -> dict:
    """Require a builder's keyword arguments: a dict with string keys."""
    if not isinstance(value, dict) or any(not isinstance(key, str) for key in value):
        raise ValueError(f"{name} must be a dict with string keys")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs.  Defaults reproduce Table II."""

    # ---- Table II -------------------------------------------------------
    total_flows: int = declared(50, check_int, 1)  # Vt
    tcp_fraction: float = declared(0.95, check_fraction)  # Γ (of legitimate flows)
    rate_bps: float = declared(1e6, check_positive)  # R (per attack source)
    n_routers: int = declared(40, check_int, 3)  # N (domain size)
    # MaficConfig.drop_probability is Pd (default 0.90).

    # ---- Workload -------------------------------------------------------
    attack_fraction: float = declared(0.4, check_fraction)  # zombies' share of Vt
    legit_rate_factor: float = declared(0.2, check_positive)  # legit UDP rate / R
    tcp_max_cwnd: float = declared(6.0, check_positive)  # FTP-like sources' window cap
    packet_size: int = declared(1000, check_int, 1)
    victim_port: int = declared(80, check_int, 0, 0xFFFF)
    udp_port: int = declared(9, check_int, 0, 0xFFFF)
    spoofing: SpoofingModel = declared(
        check_type, SpoofingModel, factory=lambda: SpoofingModel(mode=SpoofMode.MIXED)
    )
    pulsing_attack: bool = declared(False, check_bool)  # shrew-style on-off zombies
    pulse_on: float = declared(0.25, check_positive)  # mean burst seconds (pulsing)
    pulse_off: float = declared(0.25, check_non_negative)  # mean silence seconds

    # ---- Timeline -------------------------------------------------------
    # The attack begins strictly after the detector's warm-up epochs
    # (warmup_epochs x monitor_period = 1.0 s) so the calm baseline is
    # learned from legitimate traffic only.
    duration: float = declared(4.5, check_positive)
    attack_start: float = declared(1.05, check_non_negative)
    # legit flows start in [0, spread)
    legit_start_spread: float = declared(0.3, check_non_negative)

    # ---- Components -----------------------------------------------------
    # Registry-validated names (legacy enum members accepted); see
    # TOPOLOGIES, WORKLOADS, ATTACKS, DEFENSES for what is available and
    # `python -m repro run --list all` for one-line docs.
    topology: TopologyKind | str = declared(
        TopologyKind.TRANSIT_STUB, _check_component, TOPOLOGIES, TopologyKind
    )
    workload: str = declared("paper_static", _check_component, WORKLOADS)
    attack: str = declared("flood", _check_component, ATTACKS)
    # Per-component keyword arguments, forwarded verbatim to the chosen
    # builder by the scenario composer (``build_multi_tier_domain``'s
    # ``n_agg``, an attack's ``ingress_subset``, ...).  Keys a builder
    # does not accept raise TypeError at build time, naming the builder.
    topology_args: dict = declared(_check_args, factory=dict)
    workload_args: dict = declared(_check_args, factory=dict)
    attack_args: dict = declared(_check_args, factory=dict)
    defense_args: dict = declared(_check_args, factory=dict)

    # ---- Topology -------------------------------------------------------
    core_bandwidth_bps: float = declared(622e6, check_positive)
    access_bandwidth_bps: float = declared(100e6, check_positive)
    victim_bandwidth_bps: float = declared(100e6, check_positive)
    link_delay: float = declared(0.012, check_non_negative)
    queue_capacity: int = declared(256, check_int, 1)

    # ---- Counting / detection ------------------------------------------
    monitor_period: float = declared(0.25, check_positive)
    loglog_k: int = declared(11, check_int, 4, 20)
    pushback: PushbackPolicyConfig = declared(
        check_type, PushbackPolicyConfig,
        factory=lambda: PushbackPolicyConfig(
            overload_factor=1.6, share_threshold=0.02, baseline_rate=50.0,
            min_absolute=15.0, hysteresis_epochs=40, warmup_epochs=4, calm_band=1.3,
        ),
    )

    # ---- Defence --------------------------------------------------------
    defense: DefenseKind | str = declared(
        DefenseKind.MAFIC, _check_component, DEFENSES, DefenseKind
    )
    mafic: MaficConfig = declared(check_type, MaficConfig, factory=MaficConfig)
    rate_limit_bps: float = declared(500e3, check_positive)  # per-ATR baseline budget
    # When set, every ATR activates at this absolute time — modelling the
    # victim's explicit DDoS notification instead of the threshold
    # detector (used by sweeps whose attack volume is below detection
    # sensitivity, e.g. the Fig 3(b) low-rate series).  Positive: at
    # t = 0 the β before-window [0, 0) is empty.
    force_activation_at: float | None = declared(None, check_optional, check_positive)
    # Model pushback-signalling latency: requests travel the control path
    # from the victim's last-hop router to each ATR (shortest-path delay
    # + per-hop processing) instead of arriving instantly.
    control_latency: bool = declared(False, check_bool)
    control_per_hop_processing: float = declared(0.001, check_non_negative)
    # RFC 2827 ingress filtering at every ingress router: hosts cannot
    # claim sources outside their own subnet.  Off by default — the paper
    # explicitly assumes it is "still far from widely deployed".
    ingress_filtering: bool = declared(False, check_bool)

    # ---- Bookkeeping ----------------------------------------------------
    seed: int = declared(1, check_seed)
    # The next three fields have no effect: no run reads them (a run's
    # defence events go onto the event bus, and its victim collector
    # always streams).  They stay declared and validated only because
    # they are hashed into run identity (every preset's config_hash is
    # pinned), and go when run identity stops hashing result-neutral
    # fields (ROADMAP item 12); tests/experiments/test_inert_fields.py
    # shows that flipping one changes no result.
    trace_enabled: bool = declared(True, check_bool)
    trace_max_records: int | None = declared(200_000, check_optional, check_int, 0)
    streaming_series: bool = declared(False, check_bool)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.attack_start >= self.duration:
            raise ValueError("attack_start must fall inside the run")
        if (self.force_activation_at or 0) >= self.duration:
            raise ValueError("force_activation_at must fall inside the run")

    # ---- Derived workload counts ----------------------------------------

    @property
    def n_zombies(self) -> int:
        """Number of attack flows (at least 1 when attack_fraction > 0)."""
        if self.attack_fraction == 0:
            return 0
        return max(1, round(self.attack_fraction * self.total_flows))

    @property
    def n_legit(self) -> int:
        """Number of legitimate flows."""
        return self.total_flows - self.n_zombies

    @property
    def n_tcp(self) -> int:
        """Legitimate responsive (TCP) flows."""
        return round(self.tcp_fraction * self.n_legit)

    @property
    def n_udp_legit(self) -> int:
        """Legitimate unresponsive (UDP-style) flows."""
        return self.n_legit - self.n_tcp

    @property
    def legit_rate_bps(self) -> float:
        """Application rate of each legitimate flow."""
        return self.legit_rate_factor * self.rate_bps

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **kwargs)

    # ---- Canonical serialization / content addressing --------------------
    #
    # The campaign store keys run artifacts by a *stable* hash of the
    # full configuration: the same config must hash identically across
    # processes, platforms, and repo checkouts, so the hash is computed
    # over a canonical JSON form (sorted keys, no whitespace, enums as
    # their values) rather than over pickle or repr.

    def to_dict(self) -> dict:
        """A canonical, JSON-friendly dict of every field (recursive)."""
        return _canonical_value(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Nested component configs are rebuilt by :func:`from_fields`;
        missing keys fall back to field defaults, so artifacts written
        by older configs load under newer ones.
        """
        return from_fields(cls, data)

    def canonical_json(self) -> str:
        """Whitespace-free, key-sorted JSON — the hashing pre-image."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"),
            allow_nan=False,
        )

    def config_hash(self) -> str:
        """A 16-hex-digit content hash identifying this exact config.

        SHA-256 over :meth:`canonical_json`, truncated to 64 bits —
        plenty for store keys (collision odds at a million runs are
        ~1e-8) while keeping file names short.
        """
        digest = sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()[:16]


def _canonical_value(value):
    """Recursively convert config values into JSON-canonical form."""
    if isinstance(value, Enum):
        return _canonical_value(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        out = {}
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"config dict keys must be str, got {key!r}")
            out[key] = _canonical_value(value[key])
        return out
    if isinstance(value, (list, tuple)):
        return [_canonical_value(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"config field value {value!r} ({type(value).__name__}) is not "
        "canonically serializable"
    )
