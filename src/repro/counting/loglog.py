"""Durand-Flajolet LogLog cardinality sketches.

The pushback technique of Section II needs, per router, the number of
*distinct* packets injected (``|Si|``) and delivered (``|Dj|``), and the
union cardinality ``|Si U Dj|`` — all in O(log log n) space.  LogLog
provides exactly this: ``m = 2**k`` single-byte registers, each holding
the maximum rank (position of the first 1 bit) seen in its bucket
("stochastic averaging"), with unions computed by register-wise max
("distributed max-merge").

Estimator: ``E = alpha_m * m * 2**(mean of registers)`` with the standard
bias constant ``alpha_m ~= 0.39701`` for m >= 64.  Small cardinalities use
linear counting on the empty-register count to avoid LogLog's small-range
bias.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.sim.packet import PacketType
from repro.util.hashing import int_hasher

_DATA = PacketType.DATA

# Asymptotic bias-correction constant of the original LogLog paper:
# alpha_inf = (Gamma(-1/m)*(1-2^(1/m))/ln 2)^(-m) -> 0.39701 as m grows.
_ALPHA_INF = 0.39701
_REGISTER_MAX = 64


def _alpha(m: int) -> float:
    """Bias constant; the asymptotic value is accurate for m >= 64."""
    if m >= 64:
        return _ALPHA_INF
    # Low-m corrections (Durand & Flajolet give the general formula; these
    # are the standard tabulated values used in practice).
    return {16: 0.673 / 1.79, 32: 0.697 / 1.79}.get(m, _ALPHA_INF)


@lru_cache(maxsize=None)
def _lane_tops(m: int) -> int:
    """``0x80`` in each of ``m`` byte lanes, as one int (the guard bits)."""
    return int.from_bytes(b"\x80" * m, "little")


def _lane_max(a: bytearray, b: bytearray) -> bytes:
    """Byte-wise ``max`` of two equal-length register files.

    One subtraction over the whole file as an int: with every byte below
    ``0x80``, ``(a_i | 0x80) - b_i`` never borrows across lanes and keeps
    lane ``i``'s top bit exactly when ``a_i >= b_i``; that bit widens to
    a ``0xFF`` lane mask selecting ``a_i`` over ``b_i``.
    """
    tops = _lane_tops(len(a))
    x = int.from_bytes(a, "little")
    y = int.from_bytes(b, "little")
    if (x | y) & tops:
        raise ValueError(f"register values must be <= {_REGISTER_MAX}")
    ge = ((x | tops) - y) & tops
    mask = (ge << 1) - (ge >> 7)
    return (y ^ ((x ^ y) & mask)).to_bytes(len(a), "little")


def _estimate(regs: bytes | bytearray) -> float:
    """The LogLog estimate of one register file."""
    m = len(regs)
    zeros = regs.count(0)
    if zeros > 0:
        # Linear counting for the small range where LogLog is biased.
        linear = m * math.log(m / zeros)
        if linear < 2.5 * m:
            return linear
    # Exact integer sum, divided once: numpy's uint8 mean, bit for bit.
    return _alpha(m) * m * (2.0 ** (sum(regs) / m))


class LogLogCounter:
    """One LogLog sketch.

    Parameters
    ----------
    k:
        Number of bucket-index bits; the sketch has ``m = 2**k`` registers.
        The paper's O(log log n) storage claim corresponds to the byte-sized
        registers here.
    salt:
        Mixed into the item hash so independent sketches (e.g. per epoch)
        can decorrelate if desired.  Sketches that must be merged MUST use
        the same salt.
    """

    __slots__ = ("k", "m", "salt", "_hash", "_regs", "_shift", "_rest_mask", "items_added")

    def __init__(self, k: int = 10, salt: int = 0) -> None:
        if not 4 <= k <= 20:
            raise ValueError("k must be in [4, 20]")
        self.k = int(k)
        self.m = 1 << self.k
        self.salt = int(salt)
        # item -> stable_hash64(salt, item), the salt's share paid once.
        self._hash = int_hasher(self.salt)
        # Registers live in a bytearray: per-item updates index it at
        # C speed, and estimate/merge read it whole (count, sum, or as
        # one int); the `registers` property exposes the same bytes as a
        # writable uint8 ndarray view for analysis.
        self._regs = bytearray(self.m)
        self._shift = 64 - self.k
        self._rest_mask = (1 << self._shift) - 1
        self.items_added = 0

    @property
    def registers(self):
        """The register file as a writable uint8 ndarray view."""
        import numpy as np

        return np.frombuffer(self._regs, dtype=np.uint8)

    @registers.setter
    def registers(self, values) -> None:
        regs = bytearray(values)
        if len(regs) != self.m:
            raise ValueError(f"registers: need {self.m} values, got {len(regs)}")
        if max(regs) > _REGISTER_MAX:
            raise ValueError(f"registers: values must be <= {_REGISTER_MAX}")
        self._regs = regs

    def add(self, item: int) -> None:
        """Insert one (hashable-to-int) item."""
        self._add_hashed(self._hash(int(item)))

    def _add_hashed(self, h: int) -> None:
        """Insert a pre-hashed item (``stable_hash64(salt, item)``)."""
        bucket = h >> self._shift
        rest = h & self._rest_mask
        # Rank = position of first 1 bit in the remaining 64-k bits (1-based).
        width = self._shift
        if rest == 0:
            rank = width + 1
        else:
            rank = width - rest.bit_length() + 1
        regs = self._regs
        if rank > regs[bucket]:
            regs[bucket] = rank if rank < _REGISTER_MAX else _REGISTER_MAX
        self.items_added += 1

    def estimate(self) -> float:
        """Estimated number of distinct items inserted."""
        return _estimate(self._regs)

    def merge(self, other: "LogLogCounter") -> "LogLogCounter":
        """Register-wise max merge — estimates the union of the two sets."""
        self._check_compatible(other)
        merged = LogLogCounter(self.k, self.salt)
        merged._regs = bytearray(_lane_max(self._regs, other._regs))
        merged.items_added = self.items_added + other.items_added
        return merged

    def union_estimate(self, other: "LogLogCounter") -> float:
        """``|A U B|`` without materializing the merged sketch registers."""
        self._check_compatible(other)
        return _estimate(_lane_max(self._regs, other._regs))

    def intersection_estimate(self, other: "LogLogCounter") -> float:
        """``|A ∩ B| = |A| + |B| - |A U B|`` — the paper's union transform.

        Clamped at zero: sketch noise can drive the raw value slightly
        negative for disjoint sets.
        """
        raw = self.estimate() + other.estimate() - self.union_estimate(other)
        return max(0.0, raw)

    def reset(self) -> None:
        """Clear all registers (start of a new monitoring epoch)."""
        self._regs[:] = bytes(self.m)
        self.items_added = 0

    def copy(self) -> "LogLogCounter":
        """Deep copy (epoch snapshotting)."""
        dup = LogLogCounter(self.k, self.salt)
        dup._regs = bytearray(self._regs)
        dup.items_added = self.items_added
        return dup

    def _check_compatible(self, other: "LogLogCounter") -> None:
        if self.k != other.k or self.salt != other.salt:
            raise ValueError("cannot merge sketches with different k or salt")

    @property
    def standard_error(self) -> float:
        """Theoretical relative standard error ~ 1.30 / sqrt(m)."""
        return 1.30 / math.sqrt(self.m)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"LogLogCounter(k={self.k}, estimate={self.estimate():.1f})"


class LogLogLinkCounter:
    """The NS-2 ``LogLogCounter`` Connector equivalent: a link-head hook.

    Attached at the head of a SimplexLink, it inserts every forwarded DATA
    packet's uid into its sketch.  Ingress links record the source set
    ``Si``; the victim access link records the destination set ``Dj``.
    """

    __slots__ = ("router_name", "sketch", "packets_seen")

    def __init__(self, router_name: str, k: int = 10, salt: int = 0) -> None:
        self.router_name = router_name
        self.sketch = LogLogCounter(k=k, salt=salt)
        self.packets_seen = 0

    def on_packet(self, packet, link, now: float) -> bool:
        """Count the packet; never consumes it."""
        if packet.ptype is _DATA:
            sketch = self.sketch
            if sketch.salt == 0:
                # Both the ingress and the victim counter hash the same
                # uid with the default salt; memoize the item hash on the
                # packet so the FNV mix runs once per packet, not per hook.
                h = packet._uid_hash
                if h is None:
                    h = sketch._hash(packet.uid)
                    packet._uid_hash = h
                sketch._add_hashed(h)
            else:
                sketch.add(packet.uid)
            self.packets_seen += 1
            if packet.ingress_router is None:
                packet.ingress_router = self.router_name
        return True

    def reset(self) -> None:
        """Clear the sketch for the next epoch."""
        self.sketch.reset()
        self.packets_seen = 0
