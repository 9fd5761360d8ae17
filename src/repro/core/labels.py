"""Flow labels: the hashed 4-tuple keys of Section III.B.

"The 4-tuple {Source IP, Destination IP, Source Port, Destination Port}
is used as a label to mark each flow ... we store only the output of a
hash function with the label as the input instead of the label itself."

:class:`FlowLabel` is that stored value.  It intentionally does NOT keep
the tuple itself; the tables never see raw addresses (beyond what the
agent needs transiently to forge the probe destination).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.packet import FlowKey, Packet


@dataclass(frozen=True, order=True, slots=True)
class FlowLabel:
    """An opaque 64-bit hashed flow identity."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 64):
            raise ValueError("label must be an unsigned 64-bit value")

    @classmethod
    def from_key(cls, key: FlowKey) -> "FlowLabel":
        """Hash a 4-tuple into its table label."""
        return cls(key.hashed())

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return f"flow:{self.value:016x}"


def label_of_packet(packet: Packet) -> FlowLabel:
    """The table key for ``packet``'s flow.

    Memoized on the (immutable) flow key: every packet of a flow shares
    one FlowLabel instance instead of re-validating a frozen dataclass
    per table lookup.
    """
    key = packet.flow
    label = key._label
    if label is None:
        label = FlowLabel(key._hash64)
        object.__setattr__(key, "_label", label)
    return label
