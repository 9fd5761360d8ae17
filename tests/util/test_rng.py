"""Tests for repro.util.rng."""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import Pcg64Stream, RngRegistry, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_root_seed_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_name_matters(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_mixed_name_types(self):
        assert derive_seed(1, "flow", 3) != derive_seed(1, "flow", 4)


class TestRngRegistry:
    def test_same_name_same_generator(self):
        reg = RngRegistry(42)
        assert reg.stream("drops") is reg.stream("drops")

    def test_different_names_different_streams(self):
        reg = RngRegistry(42)
        a = reg.stream("a").random(10).tolist()
        b = reg.stream("b").random(10).tolist()
        assert a != b

    def test_reproducible_across_registries(self):
        a = RngRegistry(7).stream("x").random(5).tolist()
        b = RngRegistry(7).stream("x").random(5).tolist()
        assert a == b

    def test_isolation_from_request_order(self):
        reg1 = RngRegistry(7)
        reg1.stream("first")
        draws1 = reg1.stream("second").random(3).tolist()
        reg2 = RngRegistry(7)
        draws2 = reg2.stream("second").random(3).tolist()
        assert draws1 == draws2

    def test_multi_component_names(self):
        reg = RngRegistry(0)
        assert reg.stream("mafic", "ingress0") is not reg.stream("mafic", "ingress1")

    def test_fork_namespaces(self):
        reg = RngRegistry(3)
        fork = reg.fork("sub")
        assert isinstance(fork, RngRegistry)
        assert fork.root_seed != reg.root_seed
        assert fork.stream("x").random() != reg.stream("x").random()

    def test_fork_reproducible(self):
        a = RngRegistry(3).fork("sub").stream("x").random(4).tolist()
        b = RngRegistry(3).fork("sub").stream("x").random(4).tolist()
        assert a == b

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RngRegistry(0).stream()

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngRegistry("seed")  # type: ignore[arg-type]

    def test_root_seed_property(self):
        assert RngRegistry(99).root_seed == 99


# ------------------------------------------------ the stream vs numpy's

_SEEDS = (
    st.sampled_from((0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 1, 2**130 + 7))
    | st.integers(0, 2**64 - 1)
    | st.integers(2**64, 2**300)  # more entropy words than the pool holds
)
_SPANS = (
    st.sampled_from((1, 2, 3, 64511, 64512, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**62))
    | st.integers(1, 2**34)
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("random")),
        st.tuples(st.just("random_n"), st.integers(0, 6)),
        st.tuples(st.just("integers"), _SPANS),
        st.tuples(st.just("integers_lo"), st.integers(-(2**40), 2**40), _SPANS),
        st.tuples(st.just("exponential"), st.floats(0.1, 10.0)),
    ),
    max_size=40,
)


def _apply(gen, op):
    """One draw, as plain Python values."""
    name, *args = op
    if name == "random":
        return float(gen.random())
    if name == "random_n":
        return gen.random(args[0]).tolist()
    if name == "integers":
        return int(gen.integers(args[0]))
    if name == "integers_lo":
        low, span = args
        return int(gen.integers(low, low + span))
    return float(gen.exponential(args[0]))


class TestPcg64StreamIsNumpy:
    """``Pcg64Stream(seed)`` is ``numpy.random.default_rng(seed)``: same
    draws, same bit-generator state, across the pure path and hand-off."""

    @settings(max_examples=300, deadline=None)
    @given(_SEEDS, _OPS)
    def test_draw_for_draw_and_state(self, seed, ops):
        ours, theirs = Pcg64Stream(seed), np.random.default_rng(seed)
        assert ours.bit_generator.state == theirs.bit_generator.state
        for op in ops:
            assert _apply(ours, op) == _apply(theirs, op), op
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("span", [2, 64512, 2**32 - 1, 2**32])
    def test_pending_half_word_survives_the_hand_off(self, span):
        ours, theirs = Pcg64Stream(2005), np.random.default_rng(2005)
        assert int(theirs.integers(span)) == ours.integers(span)
        # One 64-bit output fed a 32-bit draw; its high half is pending.
        assert ours.bit_generator.state["has_uint32"] == 1
        assert ours._numpy is None
        assert float(theirs.exponential(2.0)) == ours.exponential(2.0)
        assert ours._numpy is not None
        # The pending half is served first, by numpy, after the hand-off.
        assert int(theirs.integers(span)) == ours.integers(span)
        assert float(theirs.random()) == ours.random()
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_the_draws_a_run_makes_stay_pure(self):
        stream = Pcg64Stream(7)
        stream.random()
        stream.random(3)
        stream.integers(1024, 65536)
        stream.integers(2**32)
        assert stream._numpy is None

    def test_wide_span_hands_off(self):
        ours, theirs = Pcg64Stream(3), np.random.default_rng(3)
        assert ours.integers(2**33) == int(theirs.integers(2**33))
        assert ours._numpy is not None
        assert ours.random() == float(theirs.random())

    def test_random_n_is_an_array_of_doubles(self):
        draws = Pcg64Stream(1).random(4)
        assert isinstance(draws, array) and draws.typecode == "d"
        assert draws.tolist() == np.random.default_rng(1).random(4).tolist()

    def test_negative_seed_rejected_like_numpy(self):
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        with pytest.raises(ValueError):
            Pcg64Stream(-1)

    def test_registry_streams_are_numpy_default_rng_of_the_derived_seed(self):
        reg = RngRegistry(11)
        ref = np.random.default_rng(derive_seed(11, "mafic", "ingress0"))
        stream = reg.stream("mafic", "ingress0")
        assert [stream.random() for _ in range(5)] == ref.random(5).tolist()
