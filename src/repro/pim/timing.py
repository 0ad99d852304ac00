"""Analytic DRAM timing model.

The paper evaluates on a cycle-level simulator (ramulator-pim + Ramulator2).
This module substitutes an analytic model built from the same Table 1 timing
parameters. It captures the first-order effects the paper's figures depend
on: burst time, row-buffer hits vs. misses vs. conflicts, refresh
utilization loss, and streaming vs. random access cost.

Two access patterns are modelled:

* :func:`stream_time` — a sequential scan of contiguous bytes inside one
  device/bank (the PIM unit's IDE access pattern).
* :class:`BankTimingModel` — per-access latency with explicit row-buffer
  state (used for CPU-side OLTP accesses, which are mostly random).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import DRAMTimings, DeviceGeometry
from repro.units import ceil_div

__all__ = [
    "AccessStats",
    "BankTimingModel",
    "stream_time",
    "random_line_time",
    "effective_stream_bandwidth",
]


@dataclass
class AccessStats:
    """Counters accumulated by :class:`BankTimingModel`."""

    hits: int = 0
    misses: int = 0
    conflicts: int = 0
    total_time: float = 0.0
    bytes_transferred: int = 0

    @property
    def accesses(self) -> int:
        """Total number of accesses recorded."""
        return self.hits + self.misses + self.conflicts

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit the open row buffer."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def merge(self, other: "AccessStats") -> None:
        """Accumulate another stats object into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.conflicts += other.conflicts
        self.total_time += other.total_time
        self.bytes_transferred += other.bytes_transferred


@dataclass
class BankTimingModel:
    """Row-buffer-aware latency model for a single bank.

    Tracks which DRAM row is currently open and classifies each access as a
    hit, miss (bank idle), or conflict (different row open). The caller
    supplies the DRAM row index, typically ``byte_address //
    row_buffer_bytes``.
    """

    timings: DRAMTimings
    open_row: int = -1
    stats: AccessStats = field(default_factory=AccessStats)

    def access(self, row: int, bytes_transferred: int = 64, write: bool = False) -> float:
        """Record one access to ``row`` and return its latency in ns."""
        if row == self.open_row:
            latency = self.timings.row_hit_read_latency()
            self.stats.hits += 1
        elif self.open_row < 0:
            latency = self.timings.row_miss_read_latency()
            self.stats.misses += 1
        else:
            latency = self.timings.row_conflict_read_latency()
            self.stats.conflicts += 1
        if write:
            latency += self.timings.tWR - self.timings.tBURST
            latency = max(latency, self.timings.tBURST)
        self.open_row = row
        self.stats.total_time += latency
        self.stats.bytes_transferred += bytes_transferred
        return latency

    def reset(self) -> None:
        """Close the row buffer (e.g. after a refresh or mode switch)."""
        self.open_row = -1


def stream_time(
    num_bytes: int,
    timings: DRAMTimings,
    geometry: DeviceGeometry,
    access_granularity: int = 8,
) -> float:
    """Time for one PIM unit to stream ``num_bytes`` from its local bank.

    Sequential accesses at ``access_granularity`` pipeline at ``tBURST``
    each; one activate+precharge (tRCD + tRP) is paid per row-buffer's
    worth of data; the refresh penalty inflates the total.
    """
    if num_bytes <= 0:
        return 0.0
    bursts = ceil_div(num_bytes, access_granularity)
    row_activations = ceil_div(num_bytes, geometry.row_buffer_bytes)
    raw = bursts * timings.tBURST + row_activations * (timings.tRCD + timings.tRP)
    return raw * (1.0 + timings.refresh_utilization_penalty())


def random_line_time(num_lines: int, timings: DRAMTimings, hit_rate: float = 0.0) -> float:
    """Time for ``num_lines`` random cache-line accesses to one channel.

    ``hit_rate`` is the expected row-buffer hit rate; random OLTP traffic
    is conflict-dominated so the default assumes no hits.
    """
    if num_lines <= 0:
        return 0.0
    hit = timings.row_hit_read_latency()
    conflict = timings.row_conflict_read_latency()
    per_line = hit_rate * hit + (1.0 - hit_rate) * conflict
    return num_lines * per_line * (1.0 + timings.refresh_utilization_penalty())


def effective_stream_bandwidth(
    timings: DRAMTimings,
    geometry: DeviceGeometry,
    access_granularity: int = 8,
) -> float:
    """Peak streaming bandwidth of one device in bytes/ns."""
    probe = geometry.row_buffer_bytes * 16
    return probe / stream_time(probe, timings, geometry, access_granularity)
