"""Effective-bandwidth models for CPU (ADE) and PIM (IDE) access (§4, §7.2).

*Effective bandwidth* is the fraction of transferred bytes that carry
useful data. For the CPU it is driven by how many interleaved cache lines
a row access touches; for a PIM unit it is the ratio of the scanned key
column's width to the row width of the part holding it (a streamed scan at
8 B granularity must read the whole per-row footprint).

Each quantity has one formula over a set of tables:
:func:`cpu_effective_bandwidth` weights tables by ``{table: rows}`` (row
accesses hit tables in proportion to their rows), and
:func:`pim_effective_bandwidth` weights key columns by ``{(table,
column): weight}`` (scan frequency × table size). A single table is the
one-entry case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.core.config import DeviceGeometry
from repro.errors import LayoutError
from repro.format.layout import UnifiedLayout
from repro.units import ceil_div

__all__ = [
    "cpu_lines_per_row",
    "cpu_effective_bandwidth",
    "pim_column_efficiency",
    "pim_effective_bandwidth",
    "StorageBreakdown",
    "storage_breakdown",
]


def cpu_lines_per_row(layout: UnifiedLayout, geometry: DeviceGeometry) -> int:
    """Interleaved bursts (cache lines) one full-row CPU access touches.

    Each part contributes ``ceil(W / g)`` bursts of ``g · d`` bytes, where
    ``W`` is the part's row width and ``g`` the interleave granularity.
    """
    g = geometry.interleave_granularity
    return sum(ceil_div(part.row_width, g) for part in layout.parts)


def cpu_effective_bandwidth(
    layouts: Mapping[str, UnifiedLayout], geometry: DeviceGeometry, rows: Mapping[str, float]
) -> float:
    """Useful fraction of the bytes the CPU moves reading whole rows, each
    table weighted by its ``rows`` (a table missing there weighs 0)."""
    useful = 0.0
    transferred = 0.0
    line = geometry.cache_line_bytes
    for name, layout in layouts.items():
        count = rows.get(name, 0)
        useful += count * layout.useful_bytes_per_row()
        transferred += count * cpu_lines_per_row(layout, geometry) * line
    return useful / transferred if transferred else 0.0


def pim_column_efficiency(layout: UnifiedLayout, column: str) -> float:
    """Useful fraction of bytes a PIM unit streams when scanning a key column."""
    run = layout.key_column_location(column)
    part = layout.parts[run.part_index]
    return layout.schema.column(column).width / part.row_width


def pim_effective_bandwidth(
    layouts: Mapping[str, UnifiedLayout], weights: Mapping[Tuple[str, str], float]
) -> float:
    """Weighted average PIM efficiency over key columns.

    ``weights`` maps ``(table, key column)`` → how often analytical
    queries scan it, times the table's size. Columns with zero or missing
    weight do not contribute; a weighted column that is not a key column
    of its table's layout has no PIM efficiency (it scans on the CPU,
    §4.1.2) and raises ``LayoutError``.
    """
    weighted = 0.0
    total = 0.0
    for (table, column), weight in weights.items():
        if weight <= 0:
            continue
        layout = layouts[table]
        if column not in layout.key_columns:
            raise LayoutError(
                f"weighted column {column!r} is not a key column of table {table!r}"
            )
        weighted += weight * pim_column_efficiency(layout, column)
        total += weight
    return weighted / total if total else 0.0


@dataclass(frozen=True)
class StorageBreakdown:
    """Memory-storage breakdown of one laid-out table (Fig. 8b)."""

    data_bytes: int
    padding_bytes: int
    bitmap_bytes: int

    @property
    def total_bytes(self) -> int:
        """Total stored bytes."""
        return self.data_bytes + self.padding_bytes + self.bitmap_bytes

    @property
    def padding_fraction(self) -> float:
        """Padding share of total storage."""
        return self.padding_bytes / self.total_bytes if self.total_bytes else 0.0

    @property
    def bitmap_fraction(self) -> float:
        """Snapshot-bitmap share of total storage."""
        return self.bitmap_bytes / self.total_bytes if self.total_bytes else 0.0

    def merge(self, other: "StorageBreakdown") -> "StorageBreakdown":
        """Sum two breakdowns (for multi-table totals)."""
        return StorageBreakdown(
            self.data_bytes + other.data_bytes,
            self.padding_bytes + other.padding_bytes,
            self.bitmap_bytes + other.bitmap_bytes,
        )


def storage_breakdown(
    layout: UnifiedLayout,
    num_rows: int,
    delta_fraction: float = 0.1,
) -> StorageBreakdown:
    """Compute the storage breakdown of a table under ``layout``.

    The delta region is sized as ``delta_fraction`` of the data region.
    Snapshot bitmaps hold one bit per data row and one per delta row, and
    every device of the rank keeps a copy (§5.2), so the bitmap costs
    ``d`` bits per region row.
    """
    if num_rows < 0:
        raise LayoutError("num_rows must be non-negative")
    if not 0.0 <= delta_fraction:
        raise LayoutError("delta_fraction must be non-negative")
    delta_rows = int(num_rows * delta_fraction)
    region_rows = num_rows + delta_rows
    data = region_rows * layout.useful_bytes_per_row()
    padding = region_rows * layout.padding_bytes_per_row()
    bitmap_bits = region_rows * layout.num_devices
    return StorageBreakdown(data, padding, ceil_div(bitmap_bits, 8))
