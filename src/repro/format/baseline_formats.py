"""Row-store and column-store baseline format models (Fig. 3a).

These are the conventional formats PUSHtap's unified format is compared
against in §7.3.1. They do not align rows/columns to the ADE/IDE
dimensions, so:

* **row-store** — ideal for OLTP: one row access touches
  ``ceil(row_bytes / cache_line)`` lines; column scans must stream the
  whole table through the CPU.
* **column-store** — ideal for PIM column scans (columns are compact) but
  a row access touches one cache line per column, and rows are not
  ADE-aligned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.config import DeviceGeometry
from repro.errors import SchemaError
from repro.format.schema import TableSchema
from repro.units import ceil_div

__all__ = ["RowStoreFormat", "ColumnStoreFormat"]


@dataclass(frozen=True)
class RowStoreFormat:
    """Conventional row-store layout of one table."""

    schema: TableSchema

    def lines_per_row_access(
        self, geometry: DeviceGeometry, columns: Optional[Sequence[str]] = None
    ) -> int:
        """Cache lines touched when accessing a row.

        Row-store keeps a row contiguous, so even a partial-column access
        reads the row's span (columns are adjacent).
        """
        del columns  # the whole row span is fetched either way
        return ceil_div(self.schema.row_bytes, geometry.cache_line_bytes)


@dataclass(frozen=True)
class ColumnStoreFormat:
    """Conventional column-store layout of one table."""

    schema: TableSchema

    def lines_per_row_access(
        self, geometry: DeviceGeometry, columns: Optional[Sequence[str]] = None
    ) -> int:
        """Cache lines touched when accessing a row.

        Every column lives in its own region, so each accessed column
        costs one cache line (§7.3.1: reconstructing rows is what makes
        CS transactions 28 % slower).
        """
        names = list(columns) if columns is not None else self.schema.column_names
        for name in names:
            if not self.schema.has_column(name):
                raise SchemaError(f"unknown column {name!r}")
        return max(1, len(names))
