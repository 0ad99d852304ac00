"""Unit conventions and conversion helpers.

The whole library uses a single convention so cost models compose without
conversion mistakes:

* **time** — nanoseconds, stored as ``float``
* **size** — bytes, stored as ``int``
* **bandwidth** — bytes per nanosecond (numerically equal to GB/s)

This module provides named constants and converters so call sites read
naturally (``0.2 * US`` instead of ``200.0``).
"""

from __future__ import annotations

#: One nanosecond (the base time unit).
NS: float = 1.0
#: One microsecond in nanoseconds.
US: float = 1_000.0
#: One millisecond in nanoseconds.
MS: float = 1_000_000.0
#: One second in nanoseconds.
S: float = 1_000_000_000.0

#: One kibibyte in bytes.
KIB: int = 1024
#: One mebibyte in bytes.
MIB: int = 1024 * 1024
#: One gibibyte in bytes.
GIB: int = 1024 * 1024 * 1024


def gb_per_s(value: float) -> float:
    """Convert a bandwidth in GB/s to bytes/ns.

    The two are numerically equal (1 GB/s = 1e9 B / 1e9 ns), so this is an
    identity that exists purely to document intent at call sites.
    """
    return float(value)


def tpmc(committed: int, time_ns: float) -> float:
    """Committed transactions per simulated minute (0.0 at zero time)."""
    return committed / time_ns * S * 60.0 if time_ns else 0.0


def qphh(queries: int, time_ns: float) -> float:
    """Analytical queries per simulated hour (0.0 at zero time)."""
    return queries / time_ns * S * 3600.0 if time_ns else 0.0


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"ceil_div divisor must be positive, got {b}")
    if a < 0:
        raise ValueError(f"ceil_div dividend must be non-negative, got {a}")
    return -(-a // b)


def round_up(value: int, multiple: int) -> int:
    """Round ``value`` up to the nearest multiple of ``multiple``."""
    return ceil_div(value, multiple) * multiple
