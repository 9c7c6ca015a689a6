"""Small argument-validation helpers used at public API boundaries.

Internal hot paths do *not* validate (per the HPC guideline of keeping the
inner loops lean); validation happens once, at construction/configuration
time, with error messages that name the offending parameter.
"""

from __future__ import annotations


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_in_range(name: str, value: float, lo: float, hi: float) -> None:
    """Raise ``ValueError`` unless ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def check_power_of_two(name: str, value: int) -> None:
    """Raise ``ValueError`` unless ``value`` is a positive power of two."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a positive power of two, got {value!r}")
