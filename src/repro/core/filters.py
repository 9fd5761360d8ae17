"""RFC 2827 ingress filtering.

The paper's Section I names ingress filtering [4] as the countermeasure
that would defeat source spoofing — and assumes it is *not* deployed,
which is why MAFIC must work with spoofed sources.  This module provides
the filter so that assumption can be ablated: an
:class:`IngressFilter` at an ingress router's uplink drops every packet
whose claimed source falls outside the subnets that router fronts for.

The filter does not change how zombies spoof: a spoofer draws from *any*
allocated subnet (``attacks/spoofing.py``), so only a zombie whose draw
lands in its own router's subnet gets past its first hop to where MAFIC
sees it; every other zombie is cut by its own ingress filter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.sim.address import Subnet
from repro.sim.packet import Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.link import SimplexLink


class IngressFilter:
    """Link-head hook enforcing source legitimacy at an ingress router."""

    def __init__(self, allowed_subnets: Iterable[Subnet]) -> None:
        self.allowed_subnets = tuple(allowed_subnets)
        if not self.allowed_subnets:
            raise ValueError("an ingress filter needs at least one subnet")
        self.packets_checked = 0
        self.packets_dropped = 0

    def permits(self, src_ip: int) -> bool:
        """True when the claimed source belongs to a fronted subnet."""
        return any(subnet.contains(src_ip) for subnet in self.allowed_subnets)

    def on_packet(self, packet: Packet, link: "SimplexLink", now: float) -> bool:
        """Drop DATA packets with out-of-subnet sources."""
        if packet.ptype is not PacketType.DATA:
            return True
        self.packets_checked += 1
        if self.permits(packet.src_ip):
            return True
        self.packets_dropped += 1
        return False

    @property
    def drop_fraction(self) -> float:
        """Fraction of checked packets dropped so far."""
        if not self.packets_checked:
            return 0.0
        return self.packets_dropped / self.packets_checked

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"IngressFilter(subnets={len(self.allowed_subnets)}, "
            f"dropped={self.packets_dropped}/{self.packets_checked})"
        )
