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
from dataclasses import dataclass, field, replace
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
    check_fraction,
    check_int,
    check_non_negative,
    check_positive,
    check_seed,
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


def _component_name(registry: Registry, value, enum_cls=None):
    """Canonicalise a component name against its registry.

    Returns the legacy enum member when one exists for the name (so
    ``config.defense is DefenseKind.MAFIC`` keeps holding) and the plain
    canonical string for components registered after these enums froze.
    Unknown names raise ``UnknownComponentError`` listing what exists.
    """
    name = registry.canonical(value)
    if enum_cls is not None:
        try:
            return enum_cls(name)
        except ValueError:
            pass
    return name


@dataclass
class ExperimentConfig:
    """Everything one run needs.  Defaults reproduce Table II."""

    # ---- Table II -------------------------------------------------------
    total_flows: int = 50  # Vt
    tcp_fraction: float = 0.95  # Γ (of legitimate flows)
    rate_bps: float = 1e6  # R (per attack source)
    n_routers: int = 40  # N (domain size)
    # MaficConfig.drop_probability is Pd (default 0.90).

    # ---- Workload -------------------------------------------------------
    attack_fraction: float = 0.4  # share of Vt that are zombies
    legit_rate_factor: float = 0.2  # legit UDP app rate = factor * R
    tcp_max_cwnd: float = 6.0  # window cap of the greedy FTP-like sources
    packet_size: int = 1000
    victim_port: int = 80
    udp_port: int = 9
    spoofing: SpoofingModel = field(
        default_factory=lambda: SpoofingModel(mode=SpoofMode.MIXED, illegal_fraction=0.25)
    )
    pulsing_attack: bool = False  # shrew-style on-off zombies
    pulse_on: float = 0.25  # mean burst seconds (pulsing only)
    pulse_off: float = 0.25  # mean silence seconds (pulsing only)

    # ---- Timeline -------------------------------------------------------
    # The attack begins strictly after the detector's warm-up epochs
    # (warmup_epochs x monitor_period = 1.0 s) so the calm baseline is
    # learned from legitimate traffic only.
    duration: float = 4.5
    attack_start: float = 1.05
    legit_start_spread: float = 0.3  # legit flows start in [0, spread)

    # ---- Components -----------------------------------------------------
    # Registry-validated names (legacy enum members accepted); see
    # TOPOLOGIES, WORKLOADS, ATTACKS, DEFENSES for what is available and
    # `python -m repro run --list all` for one-line docs.
    topology: TopologyKind | str = TopologyKind.TRANSIT_STUB
    workload: str = "paper_static"
    attack: str = "flood"
    # Per-component keyword arguments, forwarded verbatim to the chosen
    # builder by the scenario composer (``build_multi_tier_domain``'s
    # ``n_agg``, an attack's ``ingress_subset``, ...).  Keys a builder
    # does not accept raise TypeError at build time, naming the builder.
    topology_args: dict = field(default_factory=dict)
    workload_args: dict = field(default_factory=dict)
    attack_args: dict = field(default_factory=dict)
    defense_args: dict = field(default_factory=dict)

    # ---- Topology -------------------------------------------------------
    core_bandwidth_bps: float = 622e6
    access_bandwidth_bps: float = 100e6
    victim_bandwidth_bps: float = 100e6
    link_delay: float = 0.012
    queue_capacity: int = 256

    # ---- Counting / detection ------------------------------------------
    monitor_period: float = 0.25
    loglog_k: int = 11
    pushback: PushbackPolicyConfig = field(
        default_factory=lambda: PushbackPolicyConfig(
            overload_factor=1.6,
            share_threshold=0.02,
            baseline_rate=50.0,
            min_absolute=15.0,
            hysteresis_epochs=40,
            warmup_epochs=4,
            calm_band=1.3,
        )
    )

    # ---- Defence --------------------------------------------------------
    defense: DefenseKind | str = DefenseKind.MAFIC
    mafic: MaficConfig = field(default_factory=MaficConfig)
    rate_limit_bps: float = 500e3  # per-ATR budget for the baseline
    # When set, every ATR activates at this absolute time — modelling the
    # victim's explicit DDoS notification instead of the threshold
    # detector (used by sweeps whose attack volume is below detection
    # sensitivity, e.g. the Fig 3(b) low-rate series).
    force_activation_at: float | None = None
    # Model pushback-signalling latency: requests travel the control path
    # from the victim's last-hop router to each ATR (shortest-path delay
    # + per-hop processing) instead of arriving instantly.
    control_latency: bool = False
    control_per_hop_processing: float = 0.001
    # RFC 2827 ingress filtering at every ingress router: hosts cannot
    # claim sources outside their own subnet.  Off by default — the paper
    # explicitly assumes it is "still far from widely deployed".
    ingress_filtering: bool = False

    # ---- Bookkeeping ----------------------------------------------------
    seed: int = 1
    trace_enabled: bool = True
    trace_max_records: int | None = 200_000
    # No effect: the victim collector always streams.  This field once
    # chose that collector; it stays only because it is hashed into run
    # identity (every preset's config_hash is pinned), and goes when run
    # identity stops hashing result-neutral fields (ROADMAP item 12).
    streaming_series: bool = False

    def __post_init__(self) -> None:
        self.topology = _component_name(TOPOLOGIES, self.topology, TopologyKind)
        self.workload = _component_name(WORKLOADS, self.workload)
        self.attack = _component_name(ATTACKS, self.attack)
        self.defense = _component_name(DEFENSES, self.defense, DefenseKind)
        for label in ("topology_args", "workload_args", "attack_args", "defense_args"):
            value = getattr(self, label)
            if not isinstance(value, dict) or any(
                not isinstance(key, str) for key in value
            ):
                raise ValueError(f"{label} must be a dict with string keys")
        check_int("total_flows", self.total_flows, 1)
        check_fraction("tcp_fraction", self.tcp_fraction)
        check_fraction("attack_fraction", self.attack_fraction)
        check_positive("rate_bps", self.rate_bps)
        check_positive("legit_rate_factor", self.legit_rate_factor)
        check_positive("tcp_max_cwnd", self.tcp_max_cwnd)
        check_int("n_routers", self.n_routers, 3)
        check_int("packet_size", self.packet_size, 1)
        check_int("victim_port", self.victim_port, 0, 0xFFFF)
        check_int("udp_port", self.udp_port, 0, 0xFFFF)
        for name in ("core_bandwidth_bps", "access_bandwidth_bps", "victim_bandwidth_bps"):
            check_positive(name, getattr(self, name))
        check_non_negative("link_delay", self.link_delay)
        check_int("queue_capacity", self.queue_capacity, 1)
        check_int("loglog_k", self.loglog_k, 4, 20)
        check_non_negative("control_per_hop_processing", self.control_per_hop_processing)
        check_positive("duration", self.duration)
        check_non_negative("attack_start", self.attack_start)
        if self.attack_start >= self.duration:
            raise ValueError("attack_start must fall inside the run")
        check_non_negative("legit_start_spread", self.legit_start_spread)
        check_positive("monitor_period", self.monitor_period)
        check_positive("rate_limit_bps", self.rate_limit_bps)
        if self.pulsing_attack:
            check_positive("pulse_on", self.pulse_on)
            check_non_negative("pulse_off", self.pulse_off)
        if self.force_activation_at is not None:
            # At t = 0 the β before-window [0, 0) is empty.
            check_positive("force_activation_at", self.force_activation_at)
            if not self.force_activation_at < self.duration:
                raise ValueError("force_activation_at must fall inside the run")
        check_seed("seed", self.seed)
        if not isinstance(self.trace_enabled, bool):
            raise ValueError("trace_enabled must be a bool")
        if self.trace_max_records is not None:
            check_int("trace_max_records", self.trace_max_records, 0)

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

        Nested component configs (``mafic``, ``pushback``, ``spoofing``)
        are reconstructed into their dataclasses; missing keys fall back
        to field defaults, so artifacts written by older configs load
        under newer ones.
        """
        kwargs = dict(data)
        if isinstance(kwargs.get("mafic"), dict):
            kwargs["mafic"] = MaficConfig(**kwargs["mafic"])
        if isinstance(kwargs.get("pushback"), dict):
            kwargs["pushback"] = PushbackPolicyConfig(**kwargs["pushback"])
        if isinstance(kwargs.get("spoofing"), dict):
            spoofing = dict(kwargs["spoofing"])
            spoofing["mode"] = SpoofMode(spoofing["mode"])
            kwargs["spoofing"] = SpoofingModel(**spoofing)
        return cls(**kwargs)

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
