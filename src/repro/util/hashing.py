"""Stable, process-independent hashing.

Python's built-in :func:`hash` is randomized per process for strings, which
would make flow tables non-reproducible across runs.  MAFIC stores *hashed*
flow labels (Section III.B of the paper), so the hash must be stable: the
same 4-tuple must map to the same 64-bit value in every run and on every
platform.  We use FNV-1a, which is tiny, fast, and has adequate dispersion
for table keys.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

try:  # CPython's builtin SHA-256, as ``random`` takes sha512: no libcrypto
    from _sha2 import sha256  # Python 3.12+
except ImportError:  # pragma: no cover - depends on the Python version
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

_FNV_OFFSET_BASIS_64 = 0xCBF29CE484222325
_FNV_PRIME_64 = 0x100000001B3
_MASK_64 = 0xFFFFFFFFFFFFFFFF

#: ``PRIME**n mod 2**64``: FNV-1a over ``n`` zero bytes is one multiply
#: by ``_PRIME_POWERS[n]``, because xor with a zero byte is a no-op.
_PRIME_POWERS = tuple(pow(_FNV_PRIME_64, n, 1 << 64) for n in range(10))


def fnv1a_64(data: bytes, h: int = _FNV_OFFSET_BASIS_64) -> int:
    """Return the 64-bit FNV-1a hash of ``data``.

    ``h`` resumes from the state an earlier call returned, so
    ``fnv1a_64(a + b) == fnv1a_64(b, fnv1a_64(a))``.

    >>> fnv1a_64(b"") == 0xCBF29CE484222325
    True
    """
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME_64) & _MASK_64
    return h


def fmix64(h: int) -> int:
    """MurmurHash3's 64-bit finalizer: full avalanche over all bits.

    FNV-1a alone disperses its low bits well but its high bits poorly,
    which ruins sketches that bucket on the top bits; this finalizer
    fixes that.
    """
    h &= _MASK_64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK_64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK_64
    h ^= h >> 33
    return h


def _encode(parts: tuple) -> bytearray:
    """The byte string :func:`stable_hash64` hashes for ``parts``."""
    buf = bytearray()
    for part in parts:
        if isinstance(part, bool):
            # bool is an int subclass; tag it distinctly for clarity.
            buf.append(0x03)
            buf.append(1 if part else 0)
        elif isinstance(part, int):
            buf.append(0x01)
            buf.extend((part & _MASK_64).to_bytes(8, "big"))
        elif isinstance(part, str):
            buf.append(0x02)
            buf.extend(part.encode("utf-8"))
        elif isinstance(part, bytes):
            buf.append(0x04)
            buf.extend(part)
        else:
            raise TypeError(f"unhashable part type: {type(part).__name__}")
        buf.append(0x1F)  # unit separator
    return buf


def stable_hash64(*parts: int | str | bytes) -> int:
    """Hash a heterogeneous tuple of parts into a stable 64-bit integer.

    Integer parts are encoded as 8-byte big-endian (masked to 64 bits),
    strings as UTF-8.  A one-byte type tag and a separator byte keep
    adjacent parts from colliding (``("ab", "c")`` vs ``("a", "bc")``).
    The FNV-1a core is finalized with :func:`fmix64` so every output bit
    avalanches (sketches bucket on the high bits).
    """
    return fmix64(fnv1a_64(_encode(parts)))


@lru_cache(maxsize=64, typed=True)  # typed: True and 1 are different prefixes
def int_hasher(*prefix: int | str | bytes) -> Callable[[int], int]:
    """Return ``item -> stable_hash64(*prefix, item)`` for ``int`` items.

    For callers that hash a stream of integers under one fixed prefix (a
    sketch and its salt).  The prefix and the item's type tag are hashed
    once, here; per item, the leading zero bytes of its 8-byte encoding
    cost nothing, because FNV-1a on a zero byte is a bare multiply and
    ``n`` of them are one multiply by ``PRIME**n`` — tabulated below
    for every ``n``.  Bit-identical to :func:`stable_hash64`; a ``bool``
    item is hashed as the int it equals.  Hashers are pure and shared:
    sketches that copy and merge every epoch ask for the same one.
    """
    tagged = fnv1a_64(_encode(prefix) + b"\x01")
    after_zeros = tuple(tagged * _PRIME_POWERS[n] & _MASK_64 for n in range(9))

    def hash_int(item: int) -> int:
        item &= _MASK_64
        width = (item.bit_length() + 7) >> 3  # bytes after the leading zeros
        h = after_zeros[8 - width]
        for byte in item.to_bytes(width, "big"):
            h ^= byte
            h = (h * _FNV_PRIME_64) & _MASK_64
        h ^= 0x1F
        return fmix64((h * _FNV_PRIME_64) & _MASK_64)

    return hash_int


def hash_int4(a: int, b: int, c: int, d: int) -> int:
    """``stable_hash64(a, b, c, d)`` for four ``int`` parts, bufferless.

    The flow hash (:class:`~repro.sim.packet.FlowKey` builds one per new
    4-tuple).  Each part goes straight into the FNV-1a state, with no
    byte string: its tag byte and its leading zero bytes are one multiply
    (as in :func:`int_hasher`), then come its significant bytes.  The
    state is masked once per part, not per byte: xor with a byte and a
    multiply both leave the low 64 bits depending only on the low 64
    bits.  Bit-identical to :func:`stable_hash64` for non-``bool`` ints.
    """
    h = _FNV_OFFSET_BASIS_64
    for part in (a, b, c, d):
        part &= _MASK_64
        width = (part.bit_length() + 7) >> 3
        # The tag byte, then 8 - width zero bytes: 9 - width multiplies.
        h = (h ^ 0x01) * _PRIME_POWERS[9 - width]
        for byte in part.to_bytes(width, "big"):
            h = (h ^ byte) * _FNV_PRIME_64
        h = (h ^ 0x1F) * _FNV_PRIME_64 & _MASK_64
    return fmix64(h)
