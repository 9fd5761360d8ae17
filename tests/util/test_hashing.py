"""Tests for repro.util.hashing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.hashing import fmix64, fnv1a_64, int_hasher, stable_hash64


class TestFnv1a:
    def test_empty_input_is_offset_basis(self):
        assert fnv1a_64(b"") == 0xCBF29CE484222325

    def test_known_vector(self):
        # FNV-1a 64 of "a" is a published test vector.
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C

    def test_different_inputs_differ(self):
        assert fnv1a_64(b"hello") != fnv1a_64(b"world")

    def test_deterministic(self):
        assert fnv1a_64(b"mafic") == fnv1a_64(b"mafic")

    @given(st.binary(max_size=64))
    def test_output_is_64_bit(self, data):
        assert 0 <= fnv1a_64(data) < (1 << 64)

    @given(st.binary(max_size=32), st.binary(max_size=32))
    def test_resumes_from_a_prefix_state(self, a, b):
        assert fnv1a_64(a + b) == fnv1a_64(b, fnv1a_64(a))


class TestFmix64:
    def test_zero_maps_to_zero(self):
        assert fmix64(0) == 0

    def test_output_in_range(self):
        assert 0 <= fmix64(0xFFFFFFFFFFFFFFFF) < (1 << 64)

    def test_bijective_on_samples(self):
        # fmix64 is a bijection; no collisions on a large sample.
        outputs = {fmix64(i) for i in range(10_000)}
        assert len(outputs) == 10_000

    def test_avalanche_quality_high_bits(self):
        # Consecutive integers must spread across the top 10 bits —
        # the property LogLog bucketing depends on.
        buckets = {fmix64(i) >> 54 for i in range(4096)}
        assert len(buckets) > 900  # of 1024 possible


class TestStableHash64:
    def test_deterministic_across_calls(self):
        assert stable_hash64(1, "a", b"x") == stable_hash64(1, "a", b"x")

    def test_order_sensitivity(self):
        assert stable_hash64("a", "b") != stable_hash64("b", "a")

    def test_boundary_confusion_resistant(self):
        assert stable_hash64("ab", "c") != stable_hash64("a", "bc")

    def test_type_tagging_separates_int_and_str(self):
        assert stable_hash64(49) != stable_hash64("1")

    def test_bool_distinct_from_int(self):
        assert stable_hash64(True) != stable_hash64(1)

    def test_negative_int_masked(self):
        # Negative ints are masked to 64 bits, not rejected.
        assert 0 <= stable_hash64(-1) < (1 << 64)

    def test_rejects_unsupported_type(self):
        with pytest.raises(TypeError):
            stable_hash64(3.14)

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-(2**63), max_value=2**64 - 1),
                st.text(max_size=16),
                st.binary(max_size=16),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_always_64_bit(self, parts):
        assert 0 <= stable_hash64(*parts) < (1 << 64)

    def test_collision_rate_on_flow_like_tuples(self):
        # 4-tuple labels must not collide in realistic table sizes.
        seen = set()
        for src in range(100):
            for port in range(100):
                seen.add(stable_hash64(src, 42, port, 80))
        assert len(seen) == 100 * 100

    def test_high_bits_uniform_for_buckets(self):
        counts = np.zeros(64, dtype=int)
        for i in range(64 * 200):
            counts[stable_hash64(i) >> 58] += 1
        assert counts.min() > 100  # no starving bucket


_PARTS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=8),
    st.binary(max_size=8),
)


class TestIntHasher:
    """``int_hasher(*prefix)`` is ``stable_hash64(*prefix, item)``, bit for bit."""

    @given(
        st.lists(_PARTS, max_size=3),
        st.one_of(
            st.integers(min_value=-(2**70), max_value=2**70),
            # every leading-zero-byte count, and both sides of each edge
            st.integers(0, 8).flatmap(
                lambda n: st.integers(max(0, 256**n - 2), 256**n + 1)
            ),
        ),
    )
    def test_matches_stable_hash64(self, prefix, item):
        assert int_hasher(*prefix)(item) == stable_hash64(*prefix, item)

    @pytest.mark.parametrize(
        "item", [0, 1, 255, 256, 2**56 - 1, 2**56, 2**64 - 1, 2**64, 2**64 + 7, -1, -256]
    )
    def test_edges_under_the_loglog_prefix(self, item):
        assert int_hasher(0)(item) == stable_hash64(0, item)

    def test_one_hasher_serves_many_items(self):
        hash_int = int_hasher(3, "epoch")
        assert [hash_int(i) for i in range(1000)] == [
            stable_hash64(3, "epoch", i) for i in range(1000)
        ]

    def test_rejects_unsupported_prefix(self):
        with pytest.raises(TypeError):
            int_hasher(3.14)
