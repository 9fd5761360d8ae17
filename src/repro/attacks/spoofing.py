"""IP source-address spoofing models.

Each model answers: what does a zombie write into the source-IP field?

* ``NONE`` — the zombie's true address (no spoofing).
* ``LEGIT_SUBNET`` — a random *valid* address drawn from the domain's
  allocated subnets ("legitimate" in the paper's sense: a real subnet's
  address, not the true sender).
* ``ILLEGAL`` — an address outside every allocated subnet or in a
  reserved range; MAFIC's PDT shortcut kills these on sight.
* ``MIXED`` — per-flow Bernoulli choice between LEGIT_SUBNET and
  ILLEGAL, the "somewhere in between" regime the paper targets.

``rotate_per_packet`` makes the spoofed source change on every packet
instead of per flow; since MAFIC tracks flows by the 4-tuple, rotation
turns one zombie into a stream of one-packet flows (a stress ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable

from repro.sim.packet import FlowKey, Packet
from repro.util.validation import (
    check_bool, check_enum, check_fields, check_probability, declared,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.address import AddressSpace


class SpoofMode(Enum):
    """Which spoofing regime a zombie uses."""

    NONE = "none"
    LEGIT_SUBNET = "legit_subnet"
    ILLEGAL = "illegal"
    MIXED = "mixed"


@dataclass
class SpoofingModel:
    """Configuration of a spoofer."""

    mode: SpoofMode = declared(SpoofMode.LEGIT_SUBNET, check_enum, SpoofMode)
    illegal_fraction: float = declared(0.25, check_probability)  # MIXED: P(ILLEGAL)
    rotate_per_packet: bool = declared(False, check_bool)

    def __post_init__(self) -> None:
        check_fields(self)


def _draw_address(
    model: SpoofingModel, space: "AddressSpace", rng, true_address: int
) -> int:
    if model.mode is SpoofMode.NONE:
        return true_address
    if model.mode is SpoofMode.LEGIT_SUBNET:
        return space.random_legal_int(rng)
    if model.mode is SpoofMode.ILLEGAL:
        return space.random_illegal_int(rng)
    # MIXED
    if float(rng.random()) < model.illegal_fraction:
        return space.random_illegal_int(rng)
    return space.random_legal_int(rng)


def make_spoofer(
    model: SpoofingModel,
    space: "AddressSpace",
    rng,
    true_address: int,
) -> Callable[[Packet], Packet]:
    """Build the per-packet source rewriter a zombie installs.

    With ``rotate_per_packet=False`` (default) the spoofed source is drawn
    once and every packet of the flow carries it, so the flow keeps a
    stable 4-tuple.  With rotation, every packet gets a fresh source —
    and hence a fresh flow identity.
    """
    if not model.rotate_per_packet:
        fixed = _draw_address(model, space, rng, true_address)
        # Every packet of the flow carries the sender's one FlowKey, so
        # the rewritten key is constant too: build it once and reuse it
        # (keyed on input identity, in case a caller varies the flow).
        cache: dict[FlowKey, FlowKey] = {}

        def stable_spoof(packet: Packet) -> Packet:
            flow = packet.flow
            spoofed = cache.get(flow)
            if spoofed is None:
                spoofed = cache[flow] = FlowKey(
                    fixed, flow.dst_ip, flow.src_port, flow.dst_port
                )
            packet.flow = spoofed
            return packet

        return stable_spoof

    def rotating_spoof(packet: Packet) -> Packet:
        addr = _draw_address(model, space, rng, true_address)
        packet.flow = FlowKey(
            addr, packet.flow.dst_ip, packet.flow.src_port, packet.flow.dst_port
        )
        return packet

    return rotating_spoof
