"""Foundational utilities shared by every subsystem.

This subpackage deliberately has no dependency on the rest of :mod:`repro`:
hashing/mixing primitives (:mod:`repro.util.hashing`), deterministic RNG
helpers (:mod:`repro.util.rng`), virtual/wall-clock timing helpers
(:mod:`repro.util.timers`) and argument validation (:mod:`repro.util.validate`).
"""

from repro.util.hashing import (
    fibonacci_hash,
    mix64,
    splitmix64,
    stable_vertex_hash,
)
from repro.util.rng import SeedSequenceFactory, derive_seed, make_rng
from repro.util.timers import WallTimer, format_rate, format_seconds
from repro.util.validate import (
    check_in_range,
    check_positive,
    check_power_of_two,
)

__all__ = [
    "fibonacci_hash",
    "mix64",
    "splitmix64",
    "stable_vertex_hash",
    "SeedSequenceFactory",
    "derive_seed",
    "make_rng",
    "WallTimer",
    "format_rate",
    "format_seconds",
    "check_in_range",
    "check_positive",
    "check_power_of_two",
]
