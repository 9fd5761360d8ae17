"""Named, seeded random-number streams.

Every stochastic decision in the simulator (packet drops, spoofed address
draws, flow start jitter, ...) pulls from a *named* stream derived from a
single experiment seed.  Two properties follow:

* **Reproducibility** — the same seed always yields the same run.
* **Isolation** — adding a new consumer of randomness does not perturb the
  draws seen by existing consumers, because each stream is derived from
  ``(root_seed, name)`` rather than shared.

A stream is a :class:`Pcg64Stream`: numpy's ``Generator(PCG64(seed))``
re-implemented in pure Python, bit for bit, for the draws the simulator
makes (``random()``, ``random(n)``, ``integers``), so a run that draws
nothing else never imports numpy.  Any other method hands the exact
generator state to numpy, and numpy serves the stream from then on.
"""

from __future__ import annotations

from array import array

from repro.util.hashing import stable_hash64

_MASK32 = 0xFFFFFFFF
_MASK53 = (1 << 53) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: ``x * _TWICE`` is ``x`` twice side by side: a 64-bit rotate right by
#: ``r`` is then one shift by ``r`` (and a mask).
_TWICE = (1 << 64) | 1
#: PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

# numpy.random.SeedSequence's hashmix constants (pool of four uint32s).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def derive_seed(root_seed: int, *names: int | str) -> int:
    """Derive a child seed from a root seed and a path of names.

    The derivation is a stable hash, so it is insensitive to the order in
    which streams are first requested.
    """
    return stable_hash64(root_seed, *names)


def _seed_words(seed: int) -> tuple[int, int, int, int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``, in pure Python."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    halves = []
    for value in pool * 2:  # eight uint32s, cycling the pool
        value ^= hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        halves.append(value ^ (value >> 16))
    # Little-endian pairs of uint32s, read as uint64s.
    return tuple(halves[2 * i] | halves[2 * i + 1] << 32 for i in range(4))


class Pcg64Stream:
    """numpy's ``Generator(PCG64(seed))``, bit for bit, in pure Python.

    O'Neill's PCG64 (128-bit LCG, XSL-RR output) seeded the way numpy's
    ``SeedSequence`` seeds it.  ``random()``, ``random(n)`` (an
    ``array('d')``), ``integers(high)`` and ``integers(low, high)`` over
    spans up to ``2**32`` (numpy's 32-bit Lemire path, including the
    half-word it carries between calls) are served here.  Any other call
    — another method, a shaped ``size``, a wider span — passes the exact
    state to a lazily built ``numpy.random.Generator``, which then serves
    every later draw, so the sequence never forks.

    ``bit_generator.state`` reads like numpy PCG64's state dict.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger", "_numpy")

    def __init__(self, seed: int) -> None:
        s0, s1, i0, i1 = _seed_words(seed)
        # pcg_setseq_128_srandom_r: from state 0 step (to ``inc``), add
        # the seed, step again.
        inc = (((i0 << 64) | i1) << 1 | 1) & _MASK128
        self._state = ((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _MASK128
        self._inc = inc
        self._has_uint32 = 0
        self._uinteger = 0
        self._numpy = None

    def _next64(self) -> int:
        # One LCG step, then XSL-RR: fold the halves, rotate by the top 6.
        s = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = s
        return (((s >> 64) ^ (s & _MASK64)) * _TWICE >> (s >> 122)) & _MASK64

    def _next32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        n = self._next64()
        self._has_uint32 = 1
        self._uinteger = n >> 32
        return n & _MASK32

    def random(self, size=None):
        """Uniform draws in [0, 1): a float, or ``array('d')`` of ``size``."""
        if size is None:
            # _next64 inlined, keeping its top 53 bits: this is the
            # simulator's hottest draw.
            s = (self._state * _PCG_MULT + self._inc) & _MASK128
            self._state = s
            x = ((s >> 64) ^ (s & _MASK64)) * _TWICE
            return ((x >> ((s >> 122) + 11)) & _MASK53) * 2.0 ** -53
        if type(size) is not int or size < 0:
            return self._handoff().random(size)
        nxt = self._next64
        return array("d", [(nxt() >> 11) * 2.0 ** -53 for _ in range(size)])

    def integers(self, low, high=None, size=None):
        """A uniform int in ``[0, low)`` or ``[low, high)``."""
        lo, hi = (0, low) if high is None else (low, high)
        if (size is not None or type(lo) is not int or type(hi) is not int
                or lo < _INT64_MIN or hi - 1 > _INT64_MAX
                or not 0 < hi - lo <= 1 << 32):
            return self._handoff().integers(low, high, size)
        span = hi - lo
        if span == 1:
            return lo
        if span == 1 << 32:
            return lo + self._next32()
        # Lemire's nearly-divisionless bounded draw (numpy's
        # buffered_bounded_lemire_uint32).
        m = self._next32() * span
        leftover = m & _MASK32
        if leftover < span:
            threshold = (1 << 32) % span
            while leftover < threshold:
                m = self._next32() * span
                leftover = m & _MASK32
        return lo + (m >> 32)

    @property
    def state(self) -> dict:
        """The generator state in numpy PCG64's ``state`` dict form."""
        if self._numpy is not None:
            return self._numpy.bit_generator.state
        return {
            "bit_generator": "PCG64",
            "state": {"state": self._state, "inc": self._inc},
            "has_uint32": self._has_uint32,
            "uinteger": self._uinteger,
        }

    @property
    def bit_generator(self):
        """``self`` (its ``state`` is numpy's), or numpy's after hand-off."""
        return self if self._numpy is None else self._numpy.bit_generator

    def _handoff(self):
        """Move the stream onto numpy, state intact; numpy serves it after."""
        if self._numpy is None:
            from numpy.random import PCG64, Generator

            bit_generator = PCG64(0)
            bit_generator.state = self.state
            self._numpy = Generator(bit_generator)
            # Numpy's methods replace the pure ones from now on.
            self.__class__ = _HandedOffStream
        return self._numpy

    def __getattr__(self, name: str):
        # Only reached for names the class lacks: numpy's other methods.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._handoff(), name)


class _HandedOffStream(Pcg64Stream):
    """A :class:`Pcg64Stream` after its hand-off: numpy serves every draw."""

    __slots__ = ()

    def random(self, *args, **kwargs):
        return self._numpy.random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return self._numpy.integers(*args, **kwargs)


class RngRegistry:
    """A factory of named :class:`Pcg64Stream` streams.

    >>> reg = RngRegistry(42)
    >>> a = reg.stream("drops")
    >>> b = reg.stream("drops")
    >>> a is b
    True
    >>> reg2 = RngRegistry(42)
    >>> float(a.random()) == float(reg2.stream("drops").random())
    True
    """

    def __init__(self, root_seed: int = 0) -> None:
        if not isinstance(root_seed, int):
            raise TypeError("root_seed must be an int")
        self._root_seed = root_seed
        self._streams: dict[tuple[int | str, ...], Pcg64Stream] = {}

    @property
    def root_seed(self) -> int:
        """The root seed this registry was created with."""
        return self._root_seed

    def stream(self, *names: int | str) -> Pcg64Stream:
        """Return the generator for the stream named by ``names``.

        The same name path always returns the same generator object, so
        consumers may either cache it or re-request it each time.
        """
        if not names:
            raise ValueError("a stream needs at least one name component")
        key = tuple(names)
        gen = self._streams.get(key)
        if gen is None:
            gen = Pcg64Stream(derive_seed(self._root_seed, *names))
            self._streams[key] = gen
        return gen

    def fork(self, *names: int | str) -> "RngRegistry":
        """Return a new registry rooted at a derived seed.

        Useful for giving a subsystem its own namespace of streams.
        """
        return RngRegistry(derive_seed(self._root_seed, *names))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RngRegistry(root_seed={self._root_seed}, streams={len(self._streams)})"
