"""Argument validation helpers.

Raise early with a message naming the offending parameter; all public
constructors in :mod:`repro` validate through these.  Whether a whole
config is *plausible* is :mod:`repro.experiments.validation`'s question.
"""

from __future__ import annotations

import math
from typing import Any


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
