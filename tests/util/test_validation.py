"""Tests for repro.util.validation."""

import pytest

from repro.util.validation import (
    check_fraction,
    check_int,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 3) == 3.0

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", bad)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="x must be positive and finite"):
            check_positive("x", bad)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -0.001)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="x must be non-negative and finite"):
            check_non_negative("x", bad)


class TestCheckInt:
    def test_accepts_an_int_in_range(self):
        assert check_int("n", 3, 1, 3) == 3

    @pytest.mark.parametrize("bad", [3.0, 2.5, True, "3"])
    def test_rejects_a_non_int(self, bad):
        with pytest.raises(ValueError, match="n must be an int"):
            check_int("n", bad, 1)

    @pytest.mark.parametrize("bad,message", [(0, "n must be >= 1"), (4, "n must be <= 3")])
    def test_rejects_an_int_out_of_range(self, bad, message):
        with pytest.raises(ValueError, match=message):
            check_int("n", bad, 1, 3)


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, ok):
        assert check_probability("p", ok) == ok

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2])
    def test_rejects_outside(self, bad):
        with pytest.raises(ValueError, match="p"):
            check_probability("p", bad)

    def test_fraction_alias(self):
        assert check_fraction("f", 0.3) == 0.3
        with pytest.raises(ValueError):
            check_fraction("f", 1.5)


class TestCheckType:
    def test_accepts_match(self):
        assert check_type("n", 5, int) == 5

    def test_accepts_tuple(self):
        assert check_type("n", "s", (int, str)) == "s"

    def test_rejects_mismatch(self):
        with pytest.raises(TypeError, match="n must be int"):
            check_type("n", "s", int)

    def test_error_names_all_options(self):
        with pytest.raises(TypeError, match="int | str"):
            check_type("n", 1.5, (int, str))
