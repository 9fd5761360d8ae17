"""Packets, flow keys, and packet types.

A packet carries the fields MAFIC and the counting substrate actually look
at: the 4-tuple label, a globally unique packet id (the item counted by the
LogLog sketches), a TCP-style timestamp echo (the paper's RTT source), and
bookkeeping flags (``is_attack`` ground truth for metrics — never read by
the defence itself).

Both classes are ``__slots__`` classes on the hot path:

* :class:`FlowKey` computes its stable 64-bit hash **at construction**
  (``flow_hash`` is an attribute load, not a dict probe) and memoizes its
  :meth:`reversed` partner, so the per-ACK reverse key is built once per
  flow instead of once per packet (one way only: no reference cycle).
* :class:`Packet` objects are recycled through an allocation-free
  free-list pool (:meth:`Packet.acquire` / :meth:`Packet.release`) while
  a run has the pool enabled; every acquire resets every field, including
  a **fresh uid** from the same global counter, so pooled runs are
  bit-identical to allocating ones.

The pool is off by default (unit tests construct and retain raw packets
freely); ``run_experiment`` enables it for the duration of a run.
"""

from __future__ import annotations

import itertools
from enum import Enum

from repro.util.hashing import hash_int4

_packet_ids = itertools.count(1)


def reset_packet_ids() -> None:
    """Restart the global packet-id counter (test isolation helper)."""
    global _packet_ids
    _packet_ids = itertools.count(1)


class PacketType(Enum):
    """Wire-level packet kinds the simulator distinguishes."""

    DATA = "data"
    ACK = "ack"
    DUP_ACK = "dup_ack"  # MAFIC probe: forged duplicate ACK toward the source
    CONTROL = "control"  # pushback signalling between routers


_ACK = PacketType.ACK


class FlowKey:
    """The 4-tuple flow label of Section III.B.

    MAFIC keys its tables on a hash of this label rather than the label
    itself, to bound table storage; :meth:`hashed` is that value, computed
    eagerly at construction.  Instances are immutable, hashable (by the
    stable 64-bit value), and ordered like the field tuple.
    """

    __slots__ = ("src_ip", "dst_ip", "src_port", "dst_port", "_hash64",
                 "_reversed")

    def __init__(self, src_ip: int, dst_ip: int, src_port: int, dst_port: int) -> None:
        if not 0 <= src_ip <= 0xFFFFFFFF:
            raise ValueError(f"src_ip out of range: {src_ip}")
        if not 0 <= dst_ip <= 0xFFFFFFFF:
            raise ValueError(f"dst_ip out of range: {dst_ip}")
        if not 0 <= src_port <= 0xFFFF:
            raise ValueError(f"src_port out of range: {src_port}")
        if not 0 <= dst_port <= 0xFFFF:
            raise ValueError(f"dst_port out of range: {dst_port}")
        set_attr = object.__setattr__
        set_attr(self, "src_ip", src_ip)
        set_attr(self, "dst_ip", dst_ip)
        set_attr(self, "src_port", src_port)
        set_attr(self, "dst_port", dst_port)
        set_attr(self, "_hash64", hash_int4(src_ip, dst_ip, src_port, dst_port))
        set_attr(self, "_reversed", None)

    def __setattr__(self, name, value):  # immutability, as the old frozen
        raise AttributeError(f"FlowKey is immutable (tried to set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"FlowKey is immutable (tried to delete {name!r})")

    def _tuple(self) -> tuple[int, int, int, int]:
        return (self.src_ip, self.dst_ip, self.src_port, self.dst_port)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlowKey):
            return NotImplemented
        return self._hash64 == other._hash64 and self._tuple() == other._tuple()

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return self._hash64

    def __lt__(self, other) -> bool:
        if not isinstance(other, FlowKey):
            return NotImplemented
        return self._tuple() < other._tuple()

    def __le__(self, other) -> bool:
        if not isinstance(other, FlowKey):
            return NotImplemented
        return self._tuple() <= other._tuple()

    def __gt__(self, other) -> bool:
        if not isinstance(other, FlowKey):
            return NotImplemented
        return self._tuple() > other._tuple()

    def __ge__(self, other) -> bool:
        if not isinstance(other, FlowKey):
            return NotImplemented
        return self._tuple() >= other._tuple()

    def __reduce__(self):
        return (FlowKey, self._tuple())

    def hashed(self) -> int:
        """Stable 64-bit hash of the label — what the SFT/NFT/PDT store."""
        return self._hash64

    def reversed(self) -> "FlowKey":
        """The key of the opposite direction (ACK stream), memoized so
        per-ACK reverse lookups are attribute loads.

        Memoized one way only: the reverse does not point back, so a key
        and its reverse form no reference cycle and die by refcount with
        the flow's last packet.  Asking the reverse for its reverse
        builds a new key equal to this one.
        """
        rev = self._reversed
        if rev is None:
            rev = FlowKey(self.dst_ip, self.src_ip, self.dst_port, self.src_port)
            object.__setattr__(self, "_reversed", rev)
        return rev

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"FlowKey(src_ip={self.src_ip}, dst_ip={self.dst_ip}, "
            f"src_port={self.src_port}, dst_port={self.dst_port})"
        )

    def __str__(self) -> str:
        return (
            f"{self.src_ip & 0xFFFFFFFF:#010x}:{self.src_port}->"
            f"{self.dst_ip & 0xFFFFFFFF:#010x}:{self.dst_port}"
        )


class _PacketPool:
    """Free list of recycled :class:`Packet` objects (off by default)."""

    __slots__ = ("enabled", "free", "allocated", "reused", "released")

    def __init__(self) -> None:
        self.enabled = False
        self.free: list[Packet] = []
        self.allocated = 0  # fresh constructions while enabled
        self.reused = 0
        self.released = 0

    def clear(self) -> None:
        self.free.clear()
        self.allocated = 0
        self.reused = 0
        self.released = 0


_pool = _PacketPool()


def enable_packet_pool(enabled: bool = True) -> None:
    """Turn the free-list pool on or off.

    Only code that never retains a delivered/dropped packet may run with
    the pool enabled; ``run_experiment`` scopes it to a run.  Enabling
    resets the counters; disabling drops the free list but leaves the
    counters readable as a record of the finished run (benchmarks report
    them).
    """
    _pool.enabled = enabled
    if enabled:
        _pool.clear()
    else:
        _pool.free.clear()


def packet_pool_stats() -> dict:
    """Pool counters (for benchmarks and tests)."""
    return {
        "enabled": _pool.enabled,
        "free": len(_pool.free),
        "allocated": _pool.allocated,
        "reused": _pool.reused,
        "released": _pool.released,
    }


class Packet:
    """One simulated packet.

    ``uid`` is unique per packet and is the element inserted into the
    LogLog sketches.  ``seq``/``ack`` are transport sequence numbers in
    *bytes* (TCP-style).  ``ts_val``/``ts_ecr`` model the TCP timestamp
    option MAFIC reads to estimate RTT at the ATR.
    """

    __slots__ = ("flow", "ptype", "size", "seq", "ack", "ts_val", "ts_ecr",
                 "created_at", "uid", "is_attack", "hop_count",
                 "ingress_router", "_uid_hash", "_pooled")

    def __init__(
        self,
        flow: FlowKey,
        ptype: PacketType = PacketType.DATA,
        size: int = 1000,  # bytes, including headers
        seq: int = 0,
        ack: int = 0,
        ts_val: float = 0.0,
        ts_ecr: float = 0.0,
        created_at: float = 0.0,
        uid: int | None = None,
        is_attack: bool = False,  # ground truth for metrics only
        hop_count: int = 0,
        ingress_router: str | None = None,  # set by the ingress; read by monitors
    ) -> None:
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.flow = flow
        self.ptype = ptype
        self.size = size
        self.seq = seq
        self.ack = ack
        self.ts_val = ts_val
        self.ts_ecr = ts_ecr
        self.created_at = created_at
        self.uid = next(_packet_ids) if uid is None else uid
        self.is_attack = is_attack
        self.hop_count = hop_count
        self.ingress_router = ingress_router
        self._uid_hash = None  # LogLog item-hash memo (salt-0 sketches)
        self._pooled = False

    @classmethod
    def acquire(
        cls,
        flow: FlowKey,
        ptype: PacketType = PacketType.DATA,
        size: int = 1000,
        seq: int = 0,
        ack: int = 0,
        ts_val: float = 0.0,
        ts_ecr: float = 0.0,
        created_at: float = 0.0,
        is_attack: bool = False,
    ) -> "Packet":
        """A packet from the pool (or a fresh one), every field reset.

        The uid comes from the same global counter a plain construction
        draws from, so pooled and unpooled runs assign identical uids.
        """
        if size <= 0:
            # Validate before touching the pool so a rejected acquire is
            # side-effect-free (no packet popped, no counter skew).
            raise ValueError(f"packet size must be positive, got {size}")
        pool = _pool
        if pool.enabled and pool.free:
            self = pool.free.pop()
            pool.reused += 1
            self._pooled = False
            self.flow = flow
            self.ptype = ptype
            self.size = size
            self.seq = seq
            self.ack = ack
            self.ts_val = ts_val
            self.ts_ecr = ts_ecr
            self.created_at = created_at
            self.uid = next(_packet_ids)
            self.is_attack = is_attack
            self.hop_count = 0
            self.ingress_router = None
            self._uid_hash = None
            return self
        if pool.enabled:
            pool.allocated += 1
        return cls(
            flow=flow, ptype=ptype, size=size, seq=seq, ack=ack,
            ts_val=ts_val, ts_ecr=ts_ecr, created_at=created_at,
            is_attack=is_attack,
        )

    def release(self) -> None:
        """Return this packet to the pool (no-op while the pool is off).

        Callers must hold the *last* live reference: the terminal sites
        are link/queue drops and post-dispatch at a receiving host.
        """
        pool = _pool
        if not pool.enabled:
            return
        if self._pooled:
            raise RuntimeError(f"double release of packet uid={self.uid}")
        self._pooled = True
        pool.released += 1
        pool.free.append(self)

    @property
    def src_ip(self) -> int:
        """Claimed (possibly spoofed) source address."""
        return self.flow.src_ip

    @property
    def dst_ip(self) -> int:
        """Destination address."""
        return self.flow.dst_ip

    @property
    def flow_hash(self) -> int:
        """Hashed flow label — the table key."""
        return self.flow._hash64

    @classmethod
    def build_ack(
        cls, flow: FlowKey, data_ts_val: float, ack_seq: int, now: float,
        size: int = 40,
    ) -> "Packet":
        """The ACK a receiver returns for a DATA arrival on ``flow``.

        The one ACK recipe.  Takes the data packet's fields as scalars,
        so a receiver holding a delayed ACK need not retain the (pooled)
        packet, and hands them to :meth:`acquire` positionally.
        """
        return cls.acquire(
            flow.reversed(), _ACK, size, 0, ack_seq, now, data_ts_val, now
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Packet(uid={self.uid}, {self.ptype.value}, flow={self.flow}, "
            f"seq={self.seq}, ack={self.ack}, size={self.size})"
        )
