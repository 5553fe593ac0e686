"""Shared utilities: statistics helpers and table formatting."""

from repro.utils.stats import (
    entropy_bits,
    normalized_histogram,
    safe_log2,
    value_range,
)
from repro.utils.tables import format_table

__all__ = [
    "entropy_bits",
    "normalized_histogram",
    "safe_log2",
    "value_range",
    "format_table",
]
