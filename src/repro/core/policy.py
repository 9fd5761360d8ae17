"""Drop policies: MAFIC's adaptive policy and the baselines.

A :class:`DropPolicy` decides, per packet addressed to the victim, one of
three outcomes: PASS, DROP, or DROP_AND_PROBE.  The MAFIC agent owns the
flow tables and timers and delegates the *decision for packets of
still-undecided flows* to its policy; baselines are whole policies on
their own (they never probe).

Baselines reproduce the comparison points the paper motivates:

* :class:`ProportionalDropPolicy` — the simple proportionate dropper of
  the authors' earlier work [2]: every packet to the victim, legitimate
  or malicious, is dropped with the same probability.  MAFIC's raison
  d'etre is beating the collateral damage of this policy.
* :class:`AggregateRateLimitPolicy` — classic pushback-style aggregate
  rate limiting (Ioannidis & Bellovin): admit the victim-bound aggregate
  up to a token-bucket rate; drop the excess indiscriminately.
* :class:`PassthroughPolicy` — the no-defence control.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from repro.util.validation import check_positive, check_probability

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.packet import Packet


class DropDecision(Enum):
    """Outcome of a per-packet policy decision."""

    PASS = "pass"
    DROP = "drop"
    DROP_AND_PROBE = "drop_and_probe"


class DropPolicy:
    """Interface: decide the fate of one victim-bound packet."""

    __slots__ = ()

    def decide(self, packet: "Packet", now: float) -> DropDecision:
        """Return the decision for this packet."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear internal state between pushback episodes (default no-op)."""


class PassthroughPolicy(DropPolicy):
    """Never drops: the undefended control."""

    __slots__ = ()

    def decide(self, packet: "Packet", now: float) -> DropDecision:
        """Always PASS."""
        return DropDecision.PASS


class AdaptiveMaficPolicy(DropPolicy):
    """MAFIC's probing decision: drop with probability ``Pd`` and probe.

    Only consulted for packets of flows not yet in any table; the agent
    handles table hits itself.
    """

    __slots__ = ("drop_probability", "_rng", "decisions", "drops")

    def __init__(self, drop_probability: float, rng) -> None:
        self.drop_probability = check_probability(
            "drop_probability", drop_probability
        )
        self._rng = rng
        self.decisions = 0
        self.drops = 0

    def decide(self, packet: "Packet", now: float) -> DropDecision:
        """Bernoulli(Pd) drop-and-probe; otherwise pass (still monitored)."""
        self.decisions += 1
        if self._rng.random() < self.drop_probability:
            self.drops += 1
            return DropDecision.DROP_AND_PROBE
        return DropDecision.PASS


class ProportionalDropPolicy(DropPolicy):
    """The [2] baseline: uniform random drop of all victim-bound packets."""

    __slots__ = ("drop_probability", "_rng", "decisions", "drops")

    def __init__(self, drop_probability: float, rng) -> None:
        self.drop_probability = check_probability(
            "drop_probability", drop_probability
        )
        self._rng = rng
        self.decisions = 0
        self.drops = 0

    def decide(self, packet: "Packet", now: float) -> DropDecision:
        """Bernoulli(Pd) drop with no probe, no tables, no memory."""
        self.decisions += 1
        if self._rng.random() < self.drop_probability:
            self.drops += 1
            return DropDecision.DROP
        return DropDecision.PASS


@dataclass
class _TokenBucket:
    """Continuous token bucket (tokens are bytes)."""

    rate_bps: float
    burst_bytes: float
    tokens: float = 0.0
    last_refill: float = 0.0

    def admit(self, size_bytes: int, now: float) -> bool:
        elapsed = max(0.0, now - self.last_refill)
        self.tokens = min(
            self.burst_bytes, self.tokens + elapsed * self.rate_bps / 8.0
        )
        self.last_refill = now
        if self.tokens >= size_bytes:
            self.tokens -= size_bytes
            return True
        return False


class AggregateRateLimitPolicy(DropPolicy):
    """Pushback-style aggregate rate limiting of the victim-bound traffic.

    Admits up to ``limit_bps`` (with ``burst`` seconds of burst tolerance);
    everything beyond is dropped regardless of which flow it belongs to.
    """

    __slots__ = ("limit_bps", "burst", "_bucket", "decisions", "drops")

    def __init__(self, limit_bps: float, burst: float = 0.1) -> None:
        check_positive("limit_bps", limit_bps)
        check_positive("burst", burst)
        self.limit_bps = float(limit_bps)
        self.burst = float(burst)
        self._bucket = _TokenBucket(
            rate_bps=self.limit_bps,
            burst_bytes=self.limit_bps * self.burst / 8.0,
            tokens=self.limit_bps * self.burst / 8.0,
        )
        self.decisions = 0
        self.drops = 0

    def decide(self, packet: "Packet", now: float) -> DropDecision:
        """Admit within the token budget; drop the excess."""
        self.decisions += 1
        if self._bucket.admit(packet.size, now):
            return DropDecision.PASS
        self.drops += 1
        return DropDecision.DROP

    def reset(self) -> None:
        """Refill the bucket."""
        self._bucket.tokens = self._bucket.burst_bytes
        self._bucket.last_refill = 0.0
