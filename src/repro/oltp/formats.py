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

from typing import Dict, Mapping, Optional, Protocol, Sequence, Tuple

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

#: Memo key for a column selection: None (full row) or the exact tuple.
_ColsKey = Optional[Tuple[str, ...]]


def _cols_key(columns: Optional[Sequence[str]]) -> _ColsKey:
    return None if columns is None else tuple(columns)


class AccessFormatModel(Protocol):
    """Per-format row access cost interface."""

    name: str

    def lines_for_row(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        """Cache lines touched by one row access."""
        ...

    def relayout_bytes(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        """Bytes the data re-layout function must transform (0 if none)."""
        ...


class RowStoreModel:
    """Row-store access costs — the OLTP-ideal baseline."""

    name = "rowstore"

    def __init__(self, schemas: Mapping[str, TableSchema], geometry: DeviceGeometry) -> None:
        self._formats = {n: RowStoreFormat(s) for n, s in schemas.items()}
        self._geometry = geometry
        self._lines: Dict[Tuple[str, _ColsKey], int] = {}

    def lines_for_row(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        # Line counts are pure in (table, columns); the OLTP hot path asks
        # for the same handful of selections millions of times.
        key = (table, _cols_key(columns))
        lines = self._lines.get(key)
        if lines is None:
            lines = self._lines[key] = self._format(table).lines_per_row_access(
                self._geometry, columns
            )
        return lines

    def relayout_bytes(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        return 0

    def _format(self, table: str) -> RowStoreFormat:
        try:
            return self._formats[table]
        except KeyError:
            raise SchemaError(f"unknown table {table!r}") from None


class ColumnStoreModel:
    """Column-store access costs — one line per touched column."""

    name = "columnstore"

    def __init__(self, schemas: Mapping[str, TableSchema], geometry: DeviceGeometry) -> None:
        self._formats = {n: ColumnStoreFormat(s) for n, s in schemas.items()}
        self._geometry = geometry
        self._lines: Dict[Tuple[str, _ColsKey], int] = {}

    def lines_for_row(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        key = (table, _cols_key(columns))
        lines = self._lines.get(key)
        if lines is None:
            lines = self._lines[key] = self._format(table).lines_per_row_access(
                self._geometry, columns
            )
        return lines

    def relayout_bytes(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        return 0

    def _format(self, table: str) -> ColumnStoreFormat:
        try:
            return self._formats[table]
        except KeyError:
            raise SchemaError(f"unknown table {table!r}") from None


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
        # Both answers are pure in (table, columns) over an immutable
        # layout, and OLTP asks for the same few selections per table on
        # every access — memoized, they drop from a parts/runs walk to a
        # dict hit.
        self._lines: Dict[Tuple[str, _ColsKey], int] = {}
        self._relayout: Dict[Tuple[str, _ColsKey], int] = {}

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
        key = (table, _cols_key(columns))
        lines = self._lines.get(key)
        if lines is None:
            layout = self.layout(table)
            g = self._geometry.interleave_granularity
            lines = self._lines[key] = sum(
                ceil_div(layout.parts[p].row_width, g)
                for p in self._touched_parts(table, columns)
            )
        return lines

    def relayout_bytes(self, table: str, columns: Optional[Sequence[str]] = None) -> int:
        key = (table, _cols_key(columns))
        total = self._relayout.get(key)
        if total is None:
            layout = self.layout(table)
            if columns is None:
                total = layout.schema.row_bytes
            else:
                total = 0
                for column in set(columns):
                    total += layout.schema.column(column).width
            self._relayout[key] = total
        return total
