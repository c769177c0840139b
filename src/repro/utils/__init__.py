"""Shared utilities: unit constants, statistics, and argument validation."""

from repro.utils.units import (
    GB,
    GHZ,
    KB,
    MB,
    TERA,
)
from repro.utils.stats import (
    geometric_mean,
    mean,
    percentile,
    summarize,
)
from repro.utils.validation import (
    check_in_choices,
    check_non_negative,
    check_positive,
)

__all__ = [
    "GB",
    "GHZ",
    "KB",
    "MB",
    "TERA",
    "geometric_mean",
    "mean",
    "percentile",
    "summarize",
    "check_in_choices",
    "check_non_negative",
    "check_positive",
]
