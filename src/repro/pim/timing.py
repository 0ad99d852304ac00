"""Analytic DRAM timing model.

The paper evaluates on a cycle-level simulator (ramulator-pim + Ramulator2).
This module substitutes an analytic model built from the same Table 1 timing
parameters. It captures the first-order effects the paper's figures depend
on: burst time, row-buffer hits vs. conflicts, refresh utilization loss,
and streaming vs. random access cost.

Two access patterns are modelled:

* :func:`stream_time` — a sequential scan of contiguous bytes inside one
  device/bank (the PIM unit's IDE access pattern): one activation per row
  buffer streamed.
* :func:`random_line_time` — independent cache-line accesses (the CPU's
  OLTP pattern), priced at an expected row-buffer hit rate; the OLTP
  engine charges every line as a conflict (DESIGN.md §4).
"""

from __future__ import annotations

from repro.core.config import DRAMTimings, DeviceGeometry
from repro.units import ceil_div

__all__ = [
    "stream_time",
    "random_line_time",
    "effective_stream_bandwidth",
]


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
