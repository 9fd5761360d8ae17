"""Tests for repro.sim.address."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.address import AddressSpace, IPv4Address, Subnet


class TestIPv4Address:
    def test_parse_and_render(self):
        a = IPv4Address.from_string("10.1.2.3")
        assert str(a) == "10.1.2.3"
        assert int(a) == (10 << 24) | (1 << 16) | (2 << 8) | 3

    def test_rejects_bad_quad(self):
        with pytest.raises(ValueError):
            IPv4Address.from_string("1.2.3")
        with pytest.raises(ValueError):
            IPv4Address.from_string("1.2.3.256")

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            IPv4Address(1 << 32)
        with pytest.raises(ValueError):
            IPv4Address(-1)

    def test_ordering(self):
        assert IPv4Address(1) < IPv4Address(2)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_roundtrip(self, value):
        assert IPv4Address.from_string(str(IPv4Address(value))).value == value


class TestSubnet:
    def test_contains(self):
        s = Subnet(IPv4Address.from_string("10.0.1.0").value, 24)
        assert s.contains(IPv4Address.from_string("10.0.1.7"))
        assert not s.contains(IPv4Address.from_string("10.0.2.7"))

    def test_size(self):
        assert Subnet(0x0A000000, 24).size == 256
        assert Subnet(0x0A000000, 30).size == 4

    def test_host_indexing(self):
        s = Subnet(0x0A000000, 24)
        assert int(s.host(5)) == 0x0A000005
        with pytest.raises(ValueError):
            s.host(256)

    def test_rejects_host_bits_in_base(self):
        with pytest.raises(ValueError):
            Subnet(0x0A000001, 24)

    def test_rejects_bad_prefix(self):
        with pytest.raises(ValueError):
            Subnet(0, 33)

    def test_str(self):
        assert str(Subnet(0x0A000000, 24)) == "10.0.0.0/24"

    def test_netmask_zero_prefix(self):
        assert Subnet(0, 0).netmask == 0


class TestAddressSpace:
    def test_allocation_is_disjoint(self):
        space = AddressSpace()
        a = space.allocate_subnet(24)
        b = space.allocate_subnet(24)
        assert a.base != b.base
        assert not a.contains(b.base)

    def test_legal_source_inside_allocated(self):
        space = AddressSpace()
        subnet = space.allocate_subnet(24)
        assert space.is_legal_source(subnet.host(3))

    def test_illegal_outside_allocated(self):
        space = AddressSpace()
        space.allocate_subnet(24)
        assert not space.is_legal_source(IPv4Address.from_string("200.1.2.3"))

    def test_reserved_never_legal(self):
        space = AddressSpace()
        space.allocate_subnet(24)
        assert not space.is_legal_source(IPv4Address.from_string("127.0.0.1"))
        assert not space.is_legal_source(IPv4Address.from_string("224.0.0.1"))
        assert space.is_reserved(IPv4Address.from_string("0.1.2.3"))

    @pytest.mark.parametrize("high", [1 << 32, 1 << 40, 1 << 64])
    def test_out_of_range_is_never_legal(self, high):
        # A /24 mask keeps only 24 bits: masking would land these inside.
        space = AddressSpace()
        subnet = space.allocate_subnet(24)
        assert space.is_legal_source(subnet.base + 5)
        assert not space.is_legal_source(subnet.base + 5 + high)
        assert not space.is_legal_source(subnet.base + 5 - high)
        assert not space.is_legal_source(-1)

    def test_random_legal_address_is_legal(self):
        space = AddressSpace()
        for _ in range(4):
            space.allocate_subnet(24)
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert space.is_legal_source(space.random_legal_address(rng))

    def test_random_illegal_address_is_illegal(self):
        space = AddressSpace()
        space.allocate_subnet(24)
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert not space.is_legal_source(space.random_illegal_address(rng))

    def test_random_legal_requires_allocation(self):
        with pytest.raises(RuntimeError):
            AddressSpace().random_legal_address(np.random.default_rng(0))

    def test_bad_prefix_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().allocate_subnet(31)

    def test_many_allocations(self):
        space = AddressSpace()
        subnets = [space.allocate_subnet(24) for _ in range(200)]
        assert len({s.base for s in subnets}) == 200
