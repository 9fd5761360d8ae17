"""IPv4-style addressing, subnets, and legality checks.

MAFIC's first line of defence (Section III.A) drops packets whose source
address is *illegal or unreachable*: not a valid unicast address of any
subnet in any AS the domain routes to.  To exercise that path we model a
32-bit address space partitioned into allocated subnets (one per stub /
host cluster), plus reserved ranges that are never legal sources.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

_MAX_ADDR = 0xFFFFFFFF


def _check_addr(value: int) -> int:
    if not 0 <= value <= _MAX_ADDR:
        raise ValueError(f"address out of IPv4 range: {value!r}")
    return int(value)


@dataclass(frozen=True, order=True)
class IPv4Address:
    """A 32-bit address with dotted-quad rendering.

    >>> str(IPv4Address.from_string("10.0.0.1"))
    '10.0.0.1'
    """

    value: int

    def __post_init__(self) -> None:
        _check_addr(self.value)

    @classmethod
    def from_string(cls, text: str) -> "IPv4Address":
        """Parse a dotted quad."""
        parts = text.split(".")
        if len(parts) != 4:
            raise ValueError(f"not a dotted quad: {text!r}")
        value = 0
        for part in parts:
            octet = int(part)
            if not 0 <= octet <= 255:
                raise ValueError(f"octet out of range in {text!r}")
            value = (value << 8) | octet
        return cls(value)

    def __str__(self) -> str:
        v = self.value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True)
class Subnet:
    """A CIDR block ``base/prefix_len``."""

    base: int
    prefix_len: int

    def __post_init__(self) -> None:
        _check_addr(self.base)
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {self.prefix_len}")
        if self.prefix_len == 0:
            mask = 0
        else:
            mask = (_MAX_ADDR << (32 - self.prefix_len)) & _MAX_ADDR
        # Frozen dataclass: stash the precomputed mask directly.  contains()
        # runs per packet per hop, so the mask must be a load, not a shift.
        object.__setattr__(self, "_mask", mask)
        if self.base & ~mask:
            raise ValueError("subnet base has host bits set")

    @property
    def netmask(self) -> int:
        """The prefix as a 32-bit mask (precomputed)."""
        return self._mask

    @property
    def size(self) -> int:
        """Number of addresses in the block."""
        return 1 << (32 - self.prefix_len)

    def contains(self, addr: int | IPv4Address) -> bool:
        """True when ``addr`` falls inside this block."""
        value = int(addr)
        return (value & self._mask) == self.base

    def host(self, index: int) -> IPv4Address:
        """The ``index``-th address in the block (0-based)."""
        if not 0 <= index < self.size:
            raise ValueError(f"host index {index} out of subnet of size {self.size}")
        return IPv4Address(self.base + index)

    def __str__(self) -> str:
        return f"{IPv4Address(self.base)}/{self.prefix_len}"


#: Where illegal sources are drawn: 192.0.0.0 - 223.255.255.255, above
#: every allocation (which stops below 127.0.0.0) and below 224/4.
_ILLEGAL_LO = IPv4Address.from_string("192.0.0.0").value
_ILLEGAL_HI = IPv4Address.from_string("223.255.255.255").value


class AddressSpace:
    """The set of subnets allocated in (and routable from) the domain.

    A source address is **legal** iff it belongs to some allocated subnet
    and is not in a reserved range.  Addresses outside all allocated
    subnets model the "illegal or unreachable" sources MAFIC sends
    straight to the PDT.
    """

    #: Reserved blocks that can never be legitimate unicast sources.
    RESERVED = (
        Subnet(IPv4Address.from_string("0.0.0.0").value, 8),
        Subnet(IPv4Address.from_string("127.0.0.0").value, 8),
        Subnet(IPv4Address.from_string("224.0.0.0").value, 4),  # multicast
        Subnet(IPv4Address.from_string("240.0.0.0").value, 4),  # class E
    )

    def __init__(self) -> None:
        self._subnets: list[Subnet] = []
        self._next_alloc = IPv4Address.from_string("10.0.0.0").value
        # Every subnet's [base, base + size) as a flat sorted list
        # [base0, end0, base1, end1, ...]: allocation only moves upward,
        # so the blocks are disjoint and in order, and an address is
        # inside one iff bisect_right lands on an odd index.  Written by
        # allocate_subnet alone.
        self._bounds: list[int] = []

    @property
    def subnets(self) -> tuple[Subnet, ...]:
        """All allocated subnets, in allocation order."""
        return tuple(self._subnets)

    def allocate_subnet(self, prefix_len: int = 24) -> Subnet:
        """Allocate the next free block of the given prefix length."""
        if not 8 <= prefix_len <= 30:
            raise ValueError("prefix_len must be in [8, 30]")
        size = 1 << (32 - prefix_len)
        base = (self._next_alloc + size - 1) // size * size  # align
        subnet = Subnet(base, prefix_len)
        self._next_alloc = base + size
        if self._next_alloc > IPv4Address.from_string("126.255.255.255").value:
            raise RuntimeError("address space exhausted")
        self._subnets.append(subnet)
        self._bounds += (base, base + size)
        return subnet

    def is_reserved(self, addr: int | IPv4Address) -> bool:
        """True when ``addr`` is in a reserved (never-legal) range."""
        return any(block.contains(addr) for block in self.RESERVED)

    def is_legal_source(self, addr: int | IPv4Address) -> bool:
        """True when ``addr`` could be a real host of some allocated subnet.

        "Legal" in the paper's sense: a valid address of a certain subnet
        within a certain AS — NOT necessarily the true sender.  A value
        outside 32 bits is never legal.
        """
        value = int(addr)
        # RESERVED, as arithmetic: 224/4 and 240/4 are everything from
        # 224.0.0.0 up (and so every value past 32 bits); then 0/8, 127/8.
        # A negative value is below every subnet, so the bisect says no.
        if value >= 0xE0000000 or (value >> 24) in (0, 127):
            return False
        return bisect_right(self._bounds, value) & 1 == 1

    def random_legal_int(self, rng) -> int:
        """Draw a uniformly random address from the allocated subnets:
        a subnet, then a host in it, one ``rng.integers`` each."""
        if not self._subnets:
            raise RuntimeError("no subnets allocated")
        i = 2 * int(rng.integers(len(self._subnets)))
        base = self._bounds[i]
        return base + int(rng.integers(self._bounds[i + 1] - base))

    def random_legal_address(self, rng) -> IPv4Address:
        """:meth:`random_legal_int` as an :class:`IPv4Address`."""
        return IPv4Address(self.random_legal_int(rng))

    def random_illegal_int(self, rng, max_tries: int = 64) -> int:
        """Draw an address that fails :meth:`is_legal_source`.

        Samples from the unallocated space above the allocation cursor and
        from reserved ranges; with a fresh space this always succeeds fast.
        """
        for _ in range(max_tries):
            candidate = int(rng.integers(_ILLEGAL_LO, _ILLEGAL_HI + 1))
            if not self.is_legal_source(candidate):
                return candidate
        # Reserved ranges are guaranteed illegal.
        return self.RESERVED[1].base + int(rng.integers(self.RESERVED[1].size))

    def random_illegal_address(self, rng, max_tries: int = 64) -> IPv4Address:
        """:meth:`random_illegal_int` as an :class:`IPv4Address`."""
        return IPv4Address(self.random_illegal_int(rng, max_tries))
