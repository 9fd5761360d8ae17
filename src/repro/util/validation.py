"""Argument validation helpers.

Raise early with a message naming the offending parameter; all public
constructors in :mod:`repro` validate through these; a config field
declares its check in :func:`declared`.  Whether a whole config is
*plausible* is :mod:`repro.experiments.validation`'s question.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from enum import Enum
from typing import Any, Callable


def check_positive(name: str, value: float) -> float:
    """Require a finite ``value > 0``; return it as float."""
    v = float(value)
    if not 0 < v < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return v


def check_non_negative(name: str, value: float) -> float:
    """Require a finite ``value >= 0``; return it as float."""
    v = float(value)
    if not 0 <= v < math.inf:
        raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
    return v


def check_int(name: str, value: Any, minimum: int, maximum: int | None = None) -> int:
    """Require an ``int`` (not a bool) in ``[minimum, maximum]``; return it.

    A float or bool would run as the int it stands for under another
    config hash: two store cells for one sample.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it as float."""
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return v


def check_fraction(name: str, value: float) -> float:
    """Alias of :func:`check_probability` for readability (shares of traffic)."""
    return check_probability(name, value)


def check_seed(name: str, value: Any) -> int:
    """Require an ``int`` (not a bool) in ``[0, 2**64)``; return it.

    Streams are seeded from a 64-bit hash of the seed, so a negative or
    wider seed would silently run as some seed in range (``2**64 + 1``
    as ``1``): two runs that are one sample.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value!r}")
    return value


def check_type(name: str, value: Any, expected: type | tuple[type, ...]) -> Any:
    """Require ``isinstance(value, expected)``; return value unchanged."""
    if not isinstance(value, expected):
        names = (
            expected.__name__
            if isinstance(expected, type)
            else " | ".join(t.__name__ for t in expected)
        )
        raise TypeError(f"{name} must be {names}, got {type(value).__name__}")
    return value


def check_bool(name: str, value: Any) -> bool:
    """Require a ``bool`` (``1`` and ``"no"`` are not); return it."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return value


def check_enum(name: str, value: Any, enum: type[Enum]) -> Enum:
    """Coerce ``value`` (a member or its value) to a member of ``enum``."""
    try:
        return enum(value)
    except ValueError:
        known = ", ".join(repr(member.value) for member in enum)
        raise ValueError(f"{name} must be one of {known}, got {value!r}") from None


def check_optional(name: str, value: Any, check: Callable, *bounds: Any) -> Any:
    """``None``, or ``check(name, value, *bounds)``."""
    return None if value is None else check(name, value, *bounds)


def declared(*args: Any, factory: Callable[[], Any] | None = None) -> Any:
    """A dataclass field and its check: ``declared(default, check, *bounds)``
    or ``declared(check, *bounds, factory=...)``."""
    spec = {"default_factory": factory} if factory else {"default": args[0]}
    check, *bounds = args if factory else args[1:]
    return dataclasses.field(**spec, metadata={"check": check, "bounds": tuple(bounds)})


@functools.cache
def _checks(cls: type) -> tuple[tuple[str, Callable, tuple], ...]:
    return tuple(  # an undeclared field is a KeyError at first construction
        (f.name, f.metadata["check"], f.metadata["bounds"])
        for f in dataclasses.fields(cls)
    )


def check_fields(obj: Any) -> None:
    """Run each field's declared check; store what it returns."""
    values = vars(obj)
    for name, check, bounds in _checks(type(obj)):
        values[name] = check(name, values[name], *bounds)


def from_fields(cls: type, data: dict) -> Any:
    """``cls(**data)``, a dict for a ``check_type``-d dataclass field rebuilt first."""
    kwargs = dict(data)
    for name, check, bounds in _checks(cls):
        nested = bounds[0] if check is check_type else None
        if isinstance(kwargs.get(name), dict) and dataclasses.is_dataclass(nested):
            kwargs[name] = from_fields(nested, kwargs[name])
    return cls(**kwargs)
