"""Tests for repro.util.validation."""

import dataclasses
from dataclasses import dataclass
from enum import Enum

import pytest

from repro.util.validation import (
    check_bool,
    check_enum,
    check_fields,
    check_fraction,
    check_int,
    check_non_negative,
    check_optional,
    check_positive,
    check_probability,
    check_type,
    declared,
    from_fields,
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


class TestCheckBool:
    def test_accepts_bools(self):
        assert check_bool("b", True) is True
        assert check_bool("b", False) is False

    @pytest.mark.parametrize("bad", [1, 0, "no", None, 1.0])
    def test_rejects_what_only_reads_as_a_bool(self, bad):
        with pytest.raises(ValueError, match="b must be a bool"):
            check_bool("b", bad)


class Colour(Enum):
    RED = "red"
    BLUE = "blue"


class TestCheckEnum:
    def test_coerces_a_value_to_its_member(self):
        assert check_enum("c", "red", Colour) is Colour.RED

    def test_keeps_a_member(self):
        assert check_enum("c", Colour.BLUE, Colour) is Colour.BLUE

    def test_rejects_an_unknown_value_by_name(self):
        with pytest.raises(ValueError, match="c must be one of 'red', 'blue'"):
            check_enum("c", "green", Colour)


class TestCheckOptional:
    def test_none_passes_unchecked(self):
        assert check_optional("x", None, check_positive) is None

    def test_a_value_runs_through_the_check_with_its_bounds(self):
        assert check_optional("x", 5, check_int, 1, 9) == 5
        with pytest.raises(ValueError, match="x must be <= 9"):
            check_optional("x", 10, check_int, 1, 9)


@dataclass
class Inner:
    size: int = declared(1, check_int, 1)
    colour: Colour = declared(Colour.RED, check_enum, Colour)

    def __post_init__(self):
        check_fields(self)


@dataclass
class Outer:
    rate: float = declared(1.0, check_positive)
    inner: Inner = declared(check_type, Inner, factory=Inner)
    limit: int | None = declared(None, check_optional, check_int, 0)

    def __post_init__(self):
        check_fields(self)


class TestDeclaredFields:
    def test_each_field_carries_its_check_and_bounds(self):
        size, colour = dataclasses.fields(Inner)
        assert (size.metadata["check"], size.metadata["bounds"]) == (check_int, (1,))
        assert colour.metadata["bounds"] == (Colour,)

    def test_defaults_and_factories(self):
        assert Outer() == Outer(1.0, Inner(1, Colour.RED), None)
        assert Outer().inner is not Outer().inner

    def test_check_fields_stores_what_each_check_returns(self):
        outer = Outer(rate=3, inner=Inner(colour="blue"))
        assert type(outer.rate) is float
        assert outer.inner.colour is Colour.BLUE

    @pytest.mark.parametrize(
        "kwargs,error,name",
        [
            ({"rate": 0}, ValueError, "rate"),
            ({"inner": None}, TypeError, "inner"),
            ({"limit": -1}, ValueError, "limit"),
        ],
    )
    def test_check_fields_raises_by_name(self, kwargs, error, name):
        with pytest.raises(error, match=name):
            Outer(**kwargs)

    def test_from_fields_rebuilds_nested_dataclasses(self):
        outer = from_fields(Outer, {"rate": 2.0, "inner": {"colour": "blue"}})
        assert outer == Outer(rate=2.0, inner=Inner(colour=Colour.BLUE))

    def test_from_fields_rejects_unknown_keys(self):
        with pytest.raises(TypeError):
            from_fields(Outer, {"inner": {"shade": 3}})
