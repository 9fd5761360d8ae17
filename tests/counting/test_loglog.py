"""Tests for repro.counting.loglog."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting.loglog import (
    _REGISTER_MAX,
    LogLogCounter,
    LogLogLinkCounter,
    _alpha,
    _lane_max,
)
from repro.sim.packet import FlowKey, Packet, PacketType
from repro.util.hashing import stable_hash64


class TestEstimation:
    @pytest.mark.parametrize("n", [50, 500, 5000, 50000])
    def test_estimate_within_expected_error(self, n):
        c = LogLogCounter(k=10)
        for i in range(n):
            c.add(i)
        # Allow 5 standard errors (1.30/sqrt(1024) ~ 4%).
        tolerance = 5 * c.standard_error
        assert c.estimate() == pytest.approx(n, rel=max(tolerance, 0.15))

    def test_empty_estimates_zero(self):
        assert LogLogCounter(k=8).estimate() < 1.0

    def test_duplicates_not_double_counted(self):
        c = LogLogCounter(k=10)
        for _ in range(10):
            for i in range(1000):
                c.add(i)
        assert c.estimate() == pytest.approx(1000, rel=0.2)
        assert c.items_added == 10_000

    def test_small_range_uses_linear_counting(self):
        c = LogLogCounter(k=10)
        for i in range(20):
            c.add(i)
        assert c.estimate() == pytest.approx(20, rel=0.3)

    def test_reset(self):
        c = LogLogCounter(k=8)
        for i in range(100):
            c.add(i)
        c.reset()
        assert c.estimate() < 1.0
        assert c.items_added == 0

    def test_copy_independent(self):
        c = LogLogCounter(k=8)
        c.add(1)
        dup = c.copy()
        dup.add(2)
        assert not np.array_equal(c.registers, dup.registers)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            LogLogCounter(k=3)
        with pytest.raises(ValueError):
            LogLogCounter(k=21)

    def test_standard_error_formula(self):
        assert LogLogCounter(k=10).standard_error == pytest.approx(1.30 / 32)


class TestMergeAndSetOps:
    def test_merge_equals_union(self):
        a, b = LogLogCounter(k=10), LogLogCounter(k=10)
        for i in range(1000):
            a.add(i)
        for i in range(500, 1500):
            b.add(i)
        merged = a.merge(b)
        assert merged.estimate() == pytest.approx(1500, rel=0.2)

    def test_merge_idempotent_for_same_set(self):
        a, b = LogLogCounter(k=10), LogLogCounter(k=10)
        for i in range(1000):
            a.add(i)
            b.add(i)
        assert a.merge(b).estimate() == pytest.approx(a.estimate(), rel=0.01)

    def test_union_estimate_matches_merge(self):
        a, b = LogLogCounter(k=10), LogLogCounter(k=10)
        for i in range(300):
            a.add(i)
        for i in range(200, 600):
            b.add(i)
        assert a.union_estimate(b) == pytest.approx(a.merge(b).estimate(), rel=1e-9)

    def test_intersection_via_union_transform(self):
        # The paper's a_ij = |Si| + |Dj| - |Si U Dj|.
        a, b = LogLogCounter(k=12), LogLogCounter(k=12)
        for i in range(2000):
            a.add(i)
        for i in range(1000, 3000):
            b.add(i)
        assert a.intersection_estimate(b) == pytest.approx(1000, rel=0.35)

    def test_disjoint_intersection_near_zero(self):
        a, b = LogLogCounter(k=12), LogLogCounter(k=12)
        for i in range(1000):
            a.add(i)
        for i in range(10_000, 11_000):
            b.add(i)
        # Clamped at zero; noise keeps it small relative to the sets.
        assert a.intersection_estimate(b) <= 200

    def test_incompatible_merge_rejected(self):
        with pytest.raises(ValueError):
            LogLogCounter(k=8).merge(LogLogCounter(k=10))
        with pytest.raises(ValueError):
            LogLogCounter(k=8, salt=1).merge(LogLogCounter(k=8, salt=2))

    @given(st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=50)
    def test_add_never_raises(self, item):
        c = LogLogCounter(k=6)
        c.add(item)
        assert c.estimate() >= 0

    @given(
        st.sets(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200),
        st.sets(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200),
    )
    @settings(max_examples=25)
    def test_union_bounds_property(self, xs, ys):
        """|A U B| >= max(|A|, |B|) estimates (monotonicity of max-merge)."""
        a, b = LogLogCounter(k=10), LogLogCounter(k=10)
        for x in xs:
            a.add(x)
        for y in ys:
            b.add(y)
        union = a.union_estimate(b)
        assert union >= a.estimate() - 1e-9
        assert union >= b.estimate() - 1e-9


def _reference_registers(k, salt, items):
    """The register file built straight from ``stable_hash64(salt, item)``."""
    width = 64 - k
    regs = bytearray(1 << k)
    for item in items:
        h = stable_hash64(salt, item)
        rank = width - (h & ((1 << width) - 1)).bit_length() + 1
        regs[h >> width] = max(regs[h >> width], min(rank, 64))
    return regs


def _numpy_estimate(sketch):
    """The estimator as the ndarray formula it replaced."""
    regs = np.frombuffer(bytes(sketch.registers), dtype=np.uint8)
    zeros = int(np.count_nonzero(regs == 0))
    if zeros > 0:
        linear = sketch.m * math.log(sketch.m / zeros)
        if linear < 2.5 * sketch.m:
            return linear
    return _alpha(sketch.m) * sketch.m * (2.0 ** float(regs.mean()))


# Register files over the whole legal range, dense with the extremes.
_register_value = st.sampled_from((0, 1, _REGISTER_MAX - 1, _REGISTER_MAX)) | \
    st.integers(0, _REGISTER_MAX)


@st.composite
def _register_pair(draw):
    k = draw(st.sampled_from((4, 5, 6)))
    files = st.lists(_register_value, min_size=1 << k, max_size=1 << k)
    return k, draw(files), draw(files)


class TestStdlibRegisterMath:
    """Estimate and merge read the bytearray directly; each must equal
    the numpy formula it replaced, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(_register_pair())
    def test_lane_max_is_the_bytewise_max(self, pair):
        _, a, b = pair
        assert _lane_max(bytearray(a), bytearray(b)) == bytes(map(max, a, b))

    @settings(max_examples=100, deadline=None)
    @given(_register_pair())
    def test_merge_and_estimates_match_numpy(self, pair):
        self._check_against_numpy(*pair)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_full_size_files_match_numpy(self, seed):
        rng = random.Random(seed)
        a, b = ([rng.randint(0, _REGISTER_MAX) for _ in range(1024)] for _ in "ab")
        assert _lane_max(bytearray(a), bytearray(b)) == bytes(map(max, a, b))
        self._check_against_numpy(10, a, b)

    @staticmethod
    def _check_against_numpy(k, a, b):
        x, y = LogLogCounter(k), LogLogCounter(k)
        x.registers, y.registers = a, b
        merged = x.merge(y)
        assert bytes(merged.registers) == bytes(np.maximum(x.registers, y.registers))
        for sketch in (x, y, merged):
            assert sketch.estimate() == _numpy_estimate(sketch)
        assert x.union_estimate(y) == _numpy_estimate(merged)

    def test_setter_rejects_values_the_lane_max_cannot_hold(self):
        sketch = LogLogCounter(k=4)
        with pytest.raises(ValueError, match="<= 64"):
            sketch.registers = [_REGISTER_MAX + 1] + [0] * 15
        with pytest.raises(ValueError, match="need 16"):
            sketch.registers = [0] * 15

    def test_merge_refuses_a_register_written_out_of_range(self):
        a, b = LogLogCounter(k=4), LogLogCounter(k=4)
        a.registers[3] = 200  # through the writable ndarray view
        with pytest.raises(ValueError, match="<= 64"):
            a.merge(b)


class TestHashParity:
    """The sketch's prefix-state hasher is ``stable_hash64(salt, item)``."""

    @pytest.mark.parametrize("salt", [0, 0xDEADBEEF])
    def test_registers_byte_equal_to_the_reference(self, salt):
        items = [i * 2654435761 % (1 << 40) for i in range(10_000)]
        sketch = LogLogCounter(k=10, salt=salt)
        for item in items:
            sketch.add(item)
        assert bytes(sketch.registers) == bytes(_reference_registers(10, salt, items))

    def test_bool_is_added_as_the_int_it_equals(self):
        as_bool, as_int = LogLogCounter(k=6), LogLogCounter(k=6)
        as_bool.add(True)
        as_int.add(1)
        assert bytes(as_bool.registers) == bytes(as_int.registers)
        assert bytes(as_int.registers) == bytes(_reference_registers(6, 0, [1]))

    def test_link_counter_memo_is_the_same_hash(self):
        counter = LogLogLinkCounter("ingress0", k=8)
        packets = [Packet(flow=FlowKey(1, 2, 3, 4)) for _ in range(200)]
        for p in packets:
            counter.on_packet(p, None, 0.0)
        assert all(p._uid_hash == stable_hash64(0, p.uid) for p in packets)
        assert bytes(counter.sketch.registers) == bytes(
            _reference_registers(8, 0, [p.uid for p in packets])
        )


class TestLinkCounter:
    def test_counts_data_packets(self):
        counter = LogLogLinkCounter("ingress0", k=8)
        flow = FlowKey(1, 2, 3, 4)
        for _ in range(50):
            assert counter.on_packet(Packet(flow=flow), None, 0.0)
        assert counter.packets_seen == 50
        assert counter.sketch.estimate() == pytest.approx(50, rel=0.3)

    def test_ignores_non_data(self):
        counter = LogLogLinkCounter("ingress0", k=8)
        counter.on_packet(
            Packet(flow=FlowKey(1, 2, 3, 4), ptype=PacketType.ACK), None, 0.0
        )
        assert counter.packets_seen == 0

    def test_stamps_ingress_router(self):
        counter = LogLogLinkCounter("ingress7", k=8)
        p = Packet(flow=FlowKey(1, 2, 3, 4))
        counter.on_packet(p, None, 0.0)
        assert p.ingress_router == "ingress7"

    def test_does_not_overwrite_ingress_stamp(self):
        counter = LogLogLinkCounter("core0", k=8)
        p = Packet(flow=FlowKey(1, 2, 3, 4))
        p.ingress_router = "ingress0"
        counter.on_packet(p, None, 0.0)
        assert p.ingress_router == "ingress0"

    def test_reset(self):
        counter = LogLogLinkCounter("x", k=8)
        counter.on_packet(Packet(flow=FlowKey(1, 2, 3, 4)), None, 0.0)
        counter.reset()
        assert counter.packets_seen == 0
        assert counter.sketch.estimate() < 1.0
