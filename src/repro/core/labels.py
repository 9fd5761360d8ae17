"""Flow labels: the hashed 4-tuple keys of Section III.B.

"The 4-tuple {Source IP, Destination IP, Source Port, Destination Port}
is used as a label to mark each flow ... we store only the output of a
hash function with the label as the input instead of the label itself."

A label is that stored value: the flow key's 64-bit hash as a plain
``int``, which :class:`~repro.sim.packet.FlowKey` computes once at
construction.  The tables never see raw addresses (beyond what the
agent needs transiently to forge the probe destination), and a flow
they hold costs them one number.
"""

from __future__ import annotations

from repro.sim.packet import FlowKey, Packet


class FlowLabel(int):
    """A hand-built label: an ``int`` checked to be unsigned 64-bit.

    It equals and hashes as the plain ``int`` :func:`label_of_packet`
    returns, so a label built here finds the same table entry.
    """

    __slots__ = ()

    def __new__(cls, value: int) -> "FlowLabel":
        if not 0 <= value < (1 << 64):
            raise ValueError("label must be an unsigned 64-bit value")
        return super().__new__(cls, value)

    @classmethod
    def from_key(cls, key: FlowKey) -> "FlowLabel":
        """Hash a 4-tuple into its table label."""
        return cls(key.hashed())

    def __str__(self) -> str:
        return f"flow:{int(self):016x}"


def label_of_packet(packet: Packet) -> int:
    """The table key for ``packet``'s flow: its key's 64-bit hash."""
    return packet.flow._hash64
