"""Shared utilities: seeded RNG streams, running statistics, stable hashing,
argument validation, and unit conversions.

These modules carry no simulation state of their own; everything here is a
small, deterministic building block used throughout :mod:`repro`.
"""

from repro.util.hashing import fnv1a_64, stable_hash64
from repro.util.rng import RngRegistry, derive_seed
from repro.util.stats import Ewma, RunningStats, WindowedCount, WindowedRate
from repro.util.units import (
    BITS_PER_BYTE,
    bits_to_bytes,
    bytes_to_bits,
    mbps,
    kbps,
    pkts_per_sec,
    transmission_delay,
)
from repro.util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)

__all__ = [
    "BITS_PER_BYTE",
    "Ewma",
    "RngRegistry",
    "RunningStats",
    "WindowedCount",
    "WindowedRate",
    "bits_to_bytes",
    "bytes_to_bits",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_type",
    "derive_seed",
    "fnv1a_64",
    "kbps",
    "mbps",
    "pkts_per_sec",
    "stable_hash64",
    "transmission_delay",
]
