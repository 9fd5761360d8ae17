"""The new-flow path's fast forms against the forms they replaced.

A spoofed one-packet flow hashes a fresh 4-tuple, asks whether its
source is legal, and draws its next source.  Each has a fast form:

* ``hash_int4`` folds four ints straight into FNV-1a; the reference is
  :func:`stable_hash64`, which encodes them into a byte string first.
* ``AddressSpace.is_legal_source`` tests the reserved blocks by
  arithmetic and bisects the subnet bounds; the reference scans
  ``RESERVED`` and every subnet with ``Subnet.contains``.
* ``random_legal_int`` / ``random_illegal_int`` draw plain ints; the
  reference is the draw that built an ``IPv4Address`` through
  ``Subnet.host`` and converted it back.

Each pair must agree bit for bit, and the draws must leave their
generator in the same state.
"""

import itertools

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.address import AddressSpace, IPv4Address
from repro.sim.packet import FlowKey
from repro.util.hashing import hash_int4, stable_hash64

#: Where each part's significant byte count changes.
WIDTH_EDGES = (0, 255, 256, 2**16 - 1, 2**24, 2**32 - 1)
PORT_EDGES = (0, 255, 256, 2**16 - 1)

ips = st.sampled_from(WIDTH_EDGES) | st.integers(0, 2**32 - 1)
ports = st.sampled_from(PORT_EDGES) | st.integers(0, 2**16 - 1)
any_int = st.integers(-(2**70), 2**70) | st.sampled_from((2**63, 2**64 - 1, 2**64))


class TestFlowHash:
    def test_every_width_edge_of_every_part(self):
        for parts in itertools.product(WIDTH_EDGES, repeat=4):
            assert hash_int4(*parts) == stable_hash64(*parts), parts

    @given(any_int, any_int, any_int, any_int)
    def test_any_int_is_masked_like_the_reference(self, a, b, c, d):
        assert hash_int4(a, b, c, d) == stable_hash64(a, b, c, d)

    @given(ips, ips, ports, ports)
    def test_flow_key_and_its_reverse_keep_their_hashes(self, src, dst, sport, dport):
        key = FlowKey(src, dst, sport, dport)
        assert key.hashed() == stable_hash64(src, dst, sport, dport)
        rev = key.reversed()
        assert rev.hashed() == stable_hash64(dst, src, dport, sport)
        # Memoized one way only (no key <-> reverse cycle): asking the
        # reverse for its reverse builds an equal key.
        again = rev.reversed()
        assert again == key and hash(again) == hash(key)
        assert again.hashed() == key.hashed()


def _legal_reference(space, value):
    return not space.is_reserved(value) and any(
        subnet.contains(value) for subnet in space.subnets
    )


RESERVED_EDGES = (
    0, 0x00FFFFFF, 0x01000000,              # 0.0.0.0/8
    0x7EFFFFFF, 0x7F000000, 0x7FFFFFFF, 0x80000000,  # 127.0.0.0/8
    0xDFFFFFFF, 0xE0000000, 0xEFFFFFFF, 0xF0000000, 0xFFFFFFFF,  # 224/4, 240/4
)


def _space(prefixes):
    space = AddressSpace()
    for prefix in prefixes:
        space.allocate_subnet(prefix)
    return space


class TestLegality:
    @given(
        st.lists(st.integers(8, 30), min_size=0, max_size=12),
        st.lists(st.integers(0, 2**32 - 1), max_size=40),
    )
    def test_bisect_equals_the_scan(self, prefixes, probes):
        space = _space(prefixes)
        edges = [
            edge + delta
            for subnet in space.subnets
            for edge in (subnet.base, subnet.base + subnet.size - 1)
            for delta in (-1, 0, 1)
        ]
        for value in (*RESERVED_EDGES, *edges, *probes):
            legal = _legal_reference(space, value)
            assert space.is_legal_source(value) == legal, (
                hex(value), [str(s) for s in space.subnets]
            )
            assert space.is_legal_source(IPv4Address(value)) == legal


def _legal_draw_reference(space, rng):
    subnets = space.subnets
    subnet = subnets[int(rng.integers(len(subnets)))]
    return int(subnet.host(int(rng.integers(subnet.size))))


def _illegal_draw_reference(space, rng):
    lo, hi = 0xC0000000, 0xDFFFFFFF
    for _ in range(64):
        candidate = int(rng.integers(lo, hi + 1))
        if not _legal_reference(space, candidate):
            return candidate
    reserved = AddressSpace.RESERVED[1]
    return reserved.base + int(rng.integers(reserved.size))


class TestIntDraws:
    @given(st.lists(st.integers(8, 30), min_size=1, max_size=8), st.integers(0, 2**32))
    def test_legal_int_draw_is_the_address_draw(self, prefixes, seed):
        space = _space(prefixes)
        fast, ref, wrapped = (np.random.default_rng(seed) for _ in range(3))
        for _ in range(20):
            value = space.random_legal_int(fast)
            assert value == _legal_draw_reference(space, ref)
            assert value == int(space.random_legal_address(wrapped))
        assert fast.bit_generator.state == ref.bit_generator.state
        assert fast.bit_generator.state == wrapped.bit_generator.state

    @given(st.lists(st.integers(8, 30), min_size=1, max_size=8), st.integers(0, 2**32))
    def test_illegal_int_draw_is_the_address_draw(self, prefixes, seed):
        space = _space(prefixes)
        fast, ref, wrapped = (np.random.default_rng(seed) for _ in range(3))
        for _ in range(20):
            value = space.random_illegal_int(fast)
            assert value == _illegal_draw_reference(space, ref)
            assert value == int(space.random_illegal_address(wrapped))
        assert fast.bit_generator.state == ref.bit_generator.state
        assert fast.bit_generator.state == wrapped.bit_generator.state
