"""Argument validation helpers.

Raise early with a message naming the offending parameter; all public
constructors in :mod:`repro` validate through these.  Whether a whole
config is *plausible* is :mod:`repro.experiments.validation`'s question.
"""

from __future__ import annotations

from typing import Any


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it as float."""
    v = float(value)
    if not v > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return v


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it as float."""
    v = float(value)
    if v < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return v


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it as float."""
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return v


def check_fraction(name: str, value: float) -> float:
    """Alias of :func:`check_probability` for readability (shares of traffic)."""
    return check_probability(name, value)


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
