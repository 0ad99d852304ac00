"""Access-format models for the OLTP cost model (§7.3.1, Fig. 9a).

A transaction's memory cost depends on how many cache lines a row access
touches, which is where row-store (RS), column-store (CS), and PUSHtap's
unified format differ. Each model answers two questions per access:

* how many interleaved cache lines does reading/writing these columns of
  one row cost, and
* how many bytes must the data re-layout function (§6.3) transform —
  non-zero only for the unified format, and only on load / commit.

The two baselines (Fig. 3a) do not align rows or columns to the ADE/IDE
dimensions: a row-store row access reads the row's span, a column-store
one touches one line per column.
"""

from __future__ import annotations

from typing import Mapping, Optional, Protocol, Sequence

from repro.core.config import DeviceGeometry
from repro.errors import SchemaError
from repro.format.bandwidth import cpu_lines_per_row
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
    """Access costs of a baseline single-instance format: a line count
    per row access read off the table's schema, and no re-layout."""

    def __init__(self, schemas: Mapping[str, TableSchema], geometry: DeviceGeometry) -> None:
        self._schemas = dict(schemas)
        self._geometry = geometry

    def _schema(self, table: str) -> TableSchema:
        try:
            return self._schemas[table]
        except KeyError:
            raise SchemaError(f"unknown table {table!r}") from None

    def relayout_bytes(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        return 0


class RowStoreModel(_BaselineModel):
    """Row-store access costs — the OLTP-ideal baseline."""

    name = "rowstore"

    def lines_for_row(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        """A row is contiguous, so even a partial-column access reads the
        row's span (its columns are adjacent)."""
        del columns  # the whole row span is fetched either way
        return ceil_div(self._schema(table).row_bytes, self._geometry.cache_line_bytes)


class ColumnStoreModel(_BaselineModel):
    """Column-store access costs — one line per touched column."""

    name = "columnstore"

    def lines_for_row(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        """Every column lives in its own region, so each accessed column
        costs one cache line (§7.3.1: reconstructing rows is what makes
        CS transactions 28 % slower)."""
        schema = self._schema(table)
        names = list(columns) if columns is not None else schema.column_names
        for name in names:
            if not schema.has_column(name):
                raise SchemaError(f"unknown column {name!r}")
        return max(1, len(names))


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

    def lines_for_row(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        layout = self.layout(table)
        if columns is None:
            return cpu_lines_per_row(layout, self._geometry)
        touched = {run.part_index for column in columns for run in layout.column_runs(column)}
        g = self._geometry.interleave_granularity
        return sum(ceil_div(layout.parts[p].row_width, g) for p in touched)

    def relayout_bytes(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        schema = self.layout(table).schema
        if columns is None:
            return schema.row_bytes
        return sum(schema.column(column).width for column in set(columns))
