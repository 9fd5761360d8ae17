"""Zombie hosts: compromised machines flooding the victim.

A zombie is an unresponsive sender (CBR or pulsing on-off) wired to a
spoofing model.  It lives on a real host inside some ingress subnet, but
the source addresses it claims are governed by its
:class:`~repro.attacks.spoofing.SpoofingModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.attacks.spoofing import SpoofingModel, make_spoofer
from repro.sim.packet import FlowKey
from repro.transport.udp import CbrSender, OnOffSender
from repro.util.validation import (
    check_bool, check_fields, check_fraction, check_int, check_non_negative,
    check_positive, check_type, declared,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.address import AddressSpace
    from repro.sim.engine import Simulator
    from repro.sim.node import Host


@dataclass(frozen=True)
class ZombieConfig:
    """One zombie's behaviour."""

    rate_bps: float = declared(1e6, check_positive)
    packet_size: int = declared(1000, check_int, 1)
    spoofing: SpoofingModel = declared(check_type, SpoofingModel, factory=SpoofingModel)
    pulsing: bool = declared(False, check_bool)  # on-off (shrew-style), not constant
    mean_on: float = declared(0.3, check_positive)
    mean_off: float = declared(0.3, check_non_negative)
    pulse_train: bool = declared(False, check_bool)  # deterministic square wave
    jitter: float = declared(0.05, check_fraction)  # CBR inter-packet jitter

    def __post_init__(self) -> None:
        check_fields(self)


class Zombie:
    """A compromised host sending attack traffic toward the victim.

    Builds the underlying unresponsive sender and exposes start/stop plus
    its send statistics.  The flow's claimed source is whatever the
    spoofing model dictates; ``src_port`` is drawn randomly so concurrent
    zombies behind one host get distinct 4-tuples.
    """

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        victim_ip: int,
        victim_port: int,
        config: ZombieConfig,
        address_space: "AddressSpace",
        rng,
    ) -> None:
        self.sim = sim
        self.host = host
        self.config = config
        src_port = int(rng.integers(1024, 65536))
        flow = FlowKey(host.address, victim_ip, src_port, victim_port)
        spoof = make_spoofer(config.spoofing, address_space, rng, host.address)
        if config.pulsing:
            self.sender = OnOffSender(
                sim,
                host,
                flow,
                rate_bps=config.rate_bps,
                packet_size=config.packet_size,
                mean_on=config.mean_on,
                mean_off=config.mean_off,
                is_attack=True,
                rng=rng,
                spoof=spoof,
                deterministic=config.pulse_train,
            )
        else:
            self.sender = CbrSender(
                sim,
                host,
                flow,
                rate_bps=config.rate_bps,
                packet_size=config.packet_size,
                is_attack=True,
                jitter=config.jitter,
                rng=rng,
                spoof=spoof,
            )
        # The flow identity on the wire (after stable spoofing) is fixed
        # by the first packet; capture it for ground-truth bookkeeping.
        probe_key = spoof(self._probe_packet(flow))
        self.wire_flow: FlowKey = probe_key.flow
        self._rotating = config.spoofing.rotate_per_packet

    @staticmethod
    def _probe_packet(flow: FlowKey):
        from repro.sim.packet import Packet

        return Packet(flow=flow)

    @property
    def rotates_sources(self) -> bool:
        """True when the zombie changes its claimed source per packet."""
        return self._rotating

    def start(self, at: float | None = None) -> None:
        """Begin flooding at absolute time ``at``."""
        self.sender.start(at)

    def stop(self) -> None:
        """Stop flooding."""
        self.sender.stop()

    @property
    def stats(self):
        """The underlying sender's FlowStats."""
        return self.sender.stats
