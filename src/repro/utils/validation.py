"""Argument validation helpers.

The public API raises ``ValueError`` with a descriptive message instead of
failing deep inside the simulator, which keeps configuration errors easy to
diagnose for downstream users.  The numeric checks also reject ``nan`` and
infinities: a ``nan`` compares false against everything, so it would slip past
a one-sided bound and stall the simulator later.
"""

from __future__ import annotations

from typing import Iterable, TypeVar

T = TypeVar("T")

_INF = float("inf")


def check_positive(name: str, value: float) -> float:
    """Return ``value`` if strictly positive and finite, otherwise raise ``ValueError``."""
    # One chained comparison: this runs for every decode of every step.
    if not 0 < value < _INF:
        raise ValueError(f"{name} must be > 0 and finite, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Return ``value`` if >= 0 and finite, otherwise raise ``ValueError``."""
    if not 0 <= value < _INF:
        raise ValueError(f"{name} must be >= 0 and finite, got {value!r}")
    return value


def check_in_choices(name: str, value: T, choices: Iterable[T]) -> T:
    """Return ``value`` if it is one of ``choices``, otherwise raise ``ValueError``."""
    allowed = list(choices)
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed!r}, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Return ``value`` if it lies in [0, 1], otherwise raise ``ValueError``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value
