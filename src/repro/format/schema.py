"""Table schemas with fixed per-column byte widths.

HTAP tables in PUSHtap use fixed-width column encodings (the paper handles
variable-width columns with conventional length-prefix techniques and does
not optimize them, §4.1.2). A :class:`Column` therefore carries an explicit
byte ``width``; integer columns of width ≤ 8 round-trip through
little-endian encoding, wider columns are treated as opaque byte strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from repro.errors import SchemaError

__all__ = ["Column", "TableSchema", "Value"]

#: A column value: integers for numeric columns, bytes for opaque columns.
Value = Union[int, bytes]


@dataclass(frozen=True)
class Column:
    """One fixed-width column of a table.

    ``kind`` is ``"int"`` for little-endian unsigned integers (width ≤ 8)
    or ``"bytes"`` for opaque fixed-width byte strings of any width.
    """

    name: str
    width: int
    kind: str = "int"

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.width <= 0:
            raise SchemaError(f"column {self.name!r} width must be positive")
        if self.kind not in ("int", "bytes"):
            raise SchemaError(f"column {self.name!r} has unknown kind {self.kind!r}")
        if self.kind == "int" and self.width > 8:
            raise SchemaError(
                f"int column {self.name!r} width {self.width} exceeds 8 bytes; "
                "use kind='bytes'"
            )
        # The bound encode checks every int against, computed once.
        object.__setattr__(self, "_max_int", (1 << (8 * self.width)) - 1)

    @property
    def max_int(self) -> int:
        """Largest integer representable in this column (int kind only)."""
        if self.kind != "int":
            raise SchemaError(f"column {self.name!r} is not an int column")
        return self._max_int

    def encode(self, value: Value) -> bytes:
        """Encode one value to exactly ``width`` bytes."""
        if self.kind == "int":
            if not isinstance(value, int):
                raise SchemaError(
                    f"column {self.name!r} expects int, got {type(value).__name__}"
                )
            if value < 0 or value > self._max_int:
                raise SchemaError(
                    f"value {value} out of range for column {self.name!r} "
                    f"(width {self.width})"
                )
            return value.to_bytes(self.width, "little")
        if not isinstance(value, (bytes, bytearray)):
            raise SchemaError(
                f"column {self.name!r} expects bytes, got {type(value).__name__}"
            )
        if len(value) > self.width:
            raise SchemaError(
                f"value of {len(value)} bytes too long for column {self.name!r} "
                f"(width {self.width})"
            )
        return bytes(value).ljust(self.width, b"\x00")

    def decode(self, raw: bytes) -> Value:
        """Decode ``width`` bytes back to a value."""
        if len(raw) != self.width:
            raise SchemaError(
                f"column {self.name!r} expects {self.width} bytes, got {len(raw)}"
            )
        if self.kind == "int":
            return int.from_bytes(raw, "little")
        return bytes(raw)


@dataclass(frozen=True)
class TableSchema:
    """An ordered collection of uniquely named columns."""

    name: str
    columns: Tuple[Column, ...]
    _by_name: Dict[str, Column] = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        by_name: Dict[str, Column] = {}
        for col in self.columns:
            if col.name in by_name:
                raise SchemaError(f"duplicate column {col.name!r} in table {self.name!r}")
            by_name[col.name] = col
        object.__setattr__(self, "_by_name", by_name)

    @classmethod
    def of(cls, name: str, columns: Sequence[Column]) -> "TableSchema":
        """Build a schema from any column sequence."""
        return cls(name, tuple(columns))

    @property
    def column_names(self) -> List[str]:
        """Column names in declaration order."""
        return [c.name for c in self.columns]

    @property
    def row_bytes(self) -> int:
        """Total useful bytes of one row (no padding)."""
        return sum(c.width for c in self.columns)

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        """Whether a column named ``name`` exists."""
        return name in self._by_name

    def encode_row(self, values: Dict[str, Value]) -> Dict[str, bytes]:
        """Encode a full row dict to per-column byte strings."""
        missing = [c.name for c in self.columns if c.name not in values]
        if missing:
            raise SchemaError(f"row for table {self.name!r} missing columns {missing}")
        return {c.name: c.encode(values[c.name]) for c in self.columns}

    def __iter__(self):
        return iter(self.columns)

    def __len__(self) -> int:
        return len(self.columns)
