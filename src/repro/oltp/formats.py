"""Access-format models for the OLTP cost model (§7.3.1, Fig. 9a).

A transaction's memory cost depends on how many cache lines a row access
touches, which is where row-store (RS), column-store (CS), and PUSHtap's
unified format differ. Each model answers two questions per access:

* how many interleaved cache lines does reading/writing these columns of
  one row cost, and
* how many bytes must the data re-layout function (§6.3) transform —
  non-zero only for the unified format, and only on load / commit.
"""

from __future__ import annotations

from typing import Mapping, Optional, Protocol, Sequence

from repro.core.config import DeviceGeometry
from repro.errors import SchemaError
from repro.format.baseline_formats import ColumnStoreFormat, RowStoreFormat
from repro.format.layout import UnifiedLayout
from repro.format.schema import TableSchema
from repro.units import ceil_div

__all__ = [
    "AccessFormatModel",
    "RowStoreModel",
    "ColumnStoreModel",
    "UnifiedFormatModel",
]


class AccessFormatModel(Protocol):
    """Per-format row access cost interface."""

    name: str

    def lines_for_row(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        """Cache lines touched by one row access."""
        ...

    def relayout_bytes(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        """Bytes the data re-layout function must transform (0 if none)."""
        ...


class _BaselineModel:
    """Access costs of a baseline single-instance format: its line count
    per row access, and no re-layout."""

    _format_type: type

    def __init__(self, schemas: Mapping[str, TableSchema], geometry: DeviceGeometry) -> None:
        self._formats = {n: self._format_type(s) for n, s in schemas.items()}
        self._geometry = geometry

    def lines_for_row(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        try:
            fmt = self._formats[table]
        except KeyError:
            raise SchemaError(f"unknown table {table!r}") from None
        return fmt.lines_per_row_access(self._geometry, columns)

    def relayout_bytes(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        return 0


class RowStoreModel(_BaselineModel):
    """Row-store access costs — the OLTP-ideal baseline."""

    name = "rowstore"
    _format_type = RowStoreFormat


class ColumnStoreModel(_BaselineModel):
    """Column-store access costs — one line per touched column."""

    name = "columnstore"
    _format_type = ColumnStoreFormat


class UnifiedFormatModel:
    """PUSHtap unified-format access costs.

    A row access touches every part containing any accessed column; each
    part costs ``ceil(W / g)`` interleaved lines. Loading or committing a
    row additionally pays the byte-level re-layout of the touched bytes
    (§6.3) — the source of PUSHtap's small OLTP overhead in Fig. 9a.
    """

    name = "unified"

    def __init__(self, layouts: Mapping[str, UnifiedLayout], geometry: DeviceGeometry) -> None:
        self._layouts = dict(layouts)
        self._geometry = geometry

    def layout(self, table: str) -> UnifiedLayout:
        """The table's unified layout."""
        try:
            return self._layouts[table]
        except KeyError:
            raise SchemaError(f"unknown table {table!r}") from None

    def _touched_parts(self, table: str, columns: Optional[Sequence[str]]) -> Sequence[int]:
        layout = self.layout(table)
        if columns is None:
            return [p.index for p in layout.parts]
        parts = set()
        for column in columns:
            for run in layout.column_runs(column):
                parts.add(run.part_index)
        return sorted(parts)

    def lines_for_row(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        layout = self.layout(table)
        g = self._geometry.interleave_granularity
        return sum(
            ceil_div(layout.parts[p].row_width, g) for p in self._touched_parts(table, columns)
        )

    def relayout_bytes(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        schema = self.layout(table).schema
        if columns is None:
            return schema.row_bytes
        return sum(schema.column(column).width for column in set(columns))
