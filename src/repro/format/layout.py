"""Layout descriptors for the unified data storage format.

A layout (Fig. 3c) divides a table into *parts*. Each part spans all ``d``
devices of a rank; within a part every device holds one *slot* of
``row_width`` bytes per row, so a row occupies ``d × row_width`` bytes per
part, aligned to the ADE dimension. Columns are placed into slots as
:class:`FieldPlacement` byte runs:

* **key columns** (scanned by analytical queries) are indivisible — the
  whole column occupies one contiguous run in one slot, so a PIM unit can
  stream it;
* **normal columns** may be split byte-wise across slots and parts
  (observation 2 of §4.1.2).

:class:`UnifiedLayout` validates the invariants and implements row
packing/unpacking — the "data re-layout" function of §6.3 — twice: as one
*index plan* per rotation the storage layer gathers rows through
(:attr:`UnifiedLayout.row_plans`, every part side by side, over a flat row or
the flat byte matrix that :meth:`UnifiedLayout.encode_columns` builds from
column arrays), and as the row-at-a-time :meth:`UnifiedLayout.pack_row` /
:meth:`UnifiedLayout.unpack_row` the tests hold it against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import LayoutError, SchemaError
from repro.format.schema import TableSchema, Value

__all__ = ["FieldPlacement", "DeviceSlot", "TablePart", "UnifiedLayout", "ColumnRun"]


@dataclass(frozen=True)
class FieldPlacement:
    """A run of ``length`` bytes of ``column`` placed inside a slot.

    ``col_offset`` is the first byte of the column covered by this run;
    ``slot_offset`` is where the run starts within the device slot.
    """

    column: str
    col_offset: int
    slot_offset: int
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise LayoutError(f"placement of {self.column!r} has non-positive length")
        if self.col_offset < 0 or self.slot_offset < 0:
            raise LayoutError(f"placement of {self.column!r} has negative offset")


@dataclass(frozen=True)
class DeviceSlot:
    """One device's per-row byte slot within a part."""

    slot_index: int
    fields: Tuple[FieldPlacement, ...] = ()


@dataclass(frozen=True)
class TablePart:
    """A part of the table: ``d`` slots of ``row_width`` bytes each."""

    index: int
    row_width: int
    slots: Tuple[DeviceSlot, ...]

    def __post_init__(self) -> None:
        if self.row_width <= 0:
            raise LayoutError(f"part {self.index} row_width must be positive")
        for slot in self.slots:
            end = max((f.slot_offset + f.length for f in slot.fields), default=0)
            if end > self.row_width:
                raise LayoutError(
                    f"part {self.index} slot {slot.slot_index} overflows "
                    f"row_width {self.row_width}"
                )
            occupied = bytearray(self.row_width)
            for f in slot.fields:
                for b in range(f.slot_offset, f.slot_offset + f.length):
                    if occupied[b]:
                        raise LayoutError(
                            f"part {self.index} slot {slot.slot_index} has "
                            f"overlapping placements at byte {b}"
                        )
                    occupied[b] = 1

    @property
    def num_slots(self) -> int:
        """Number of device slots (equals devices per rank)."""
        return len(self.slots)

    def bytes_per_row(self) -> int:
        """Total stored bytes per row in this part (incl. padding)."""
        return self.num_slots * self.row_width


@dataclass(frozen=True)
class ColumnRun:
    """Where one byte-run of a column lives: ``(part, slot, placement)``."""

    part_index: int
    slot_index: int
    placement: FieldPlacement


class UnifiedLayout:
    """A complete unified-format layout of one table.

    Validates that every byte of every column is placed exactly once and
    that key columns are contiguous within a single slot, then provides
    packing (row dict → per-part device slot bytes) and unpacking.
    """

    def __init__(
        self,
        schema: TableSchema,
        parts: Sequence[TablePart],
        key_columns: Sequence[str],
        num_devices: int,
    ) -> None:
        self.schema = schema
        self.parts: Tuple[TablePart, ...] = tuple(parts)
        self.key_columns: Tuple[str, ...] = tuple(key_columns)
        self.num_devices = num_devices
        self._runs: Dict[str, List[ColumnRun]] = {c.name: [] for c in schema}
        self._validate()
        # Per rotation, every part's flat-row index plan side by side (see below).
        self.row_plans, self.part_offsets = self._build_row_plans()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for key in self.key_columns:
            if not self.schema.has_column(key):
                raise LayoutError(f"key column {key!r} not in schema {self.schema.name!r}")
        for part in self.parts:
            if part.num_slots != self.num_devices:
                raise LayoutError(
                    f"part {part.index} has {part.num_slots} slots, "
                    f"expected {self.num_devices}"
                )
            for slot in part.slots:
                for placement in slot.fields:
                    if not self.schema.has_column(placement.column):
                        raise LayoutError(
                            f"placement references unknown column {placement.column!r}"
                        )
                    self._runs[placement.column].append(
                        ColumnRun(part.index, slot.slot_index, placement)
                    )
        for col in self.schema:
            runs = self._runs[col.name]
            covered = bytearray(col.width)
            for run in runs:
                p = run.placement
                if p.col_offset + p.length > col.width:
                    raise LayoutError(
                        f"placement of {col.name!r} exceeds column width {col.width}"
                    )
                for b in range(p.col_offset, p.col_offset + p.length):
                    if covered[b]:
                        raise LayoutError(f"column {col.name!r} byte {b} placed twice")
                    covered[b] = 1
            if not all(covered):
                missing = [b for b in range(col.width) if not covered[b]]
                raise LayoutError(f"column {col.name!r} bytes {missing} unplaced")
        for key in self.key_columns:
            runs = self._runs[key]
            if len(runs) != 1:
                raise LayoutError(
                    f"key column {key!r} must be one contiguous run, got {len(runs)}"
                )
        # Runs are immutable after validation; sort them once so the hot
        # per-row read path doesn't re-sort on every column_runs() call.
        for runs in self._runs.values():
            runs.sort(key=lambda r: r.placement.col_offset)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def column_runs(self, name: str) -> List[ColumnRun]:
        """All byte-runs of a column, in column-offset order.

        The returned list is the layout's cached copy — treat it as
        read-only.
        """
        runs = self._runs.get(name)
        if runs is None:
            raise LayoutError(f"unknown column {name!r}")
        return runs

    def key_column_location(self, name: str) -> ColumnRun:
        """The single run of a key column."""
        if name not in self.key_columns:
            raise LayoutError(f"{name!r} is not a key column")
        return self.column_runs(name)[0]

    @property
    def num_parts(self) -> int:
        """Number of parts in the layout."""
        return len(self.parts)

    def bytes_per_row(self) -> int:
        """Total stored bytes per row, including padding."""
        return sum(p.bytes_per_row() for p in self.parts)

    def useful_bytes_per_row(self) -> int:
        """Data bytes per row (equals the schema row size)."""
        return self.schema.row_bytes

    def padding_bytes_per_row(self) -> int:
        """Padding bytes per row across all parts."""
        return self.bytes_per_row() - self.useful_bytes_per_row()

    # ------------------------------------------------------------------
    # Packing / unpacking (the data re-layout function, §6.3)
    # ------------------------------------------------------------------
    def _build_row_plans(self) -> Tuple[Tuple[np.ndarray, ...], Tuple[int, ...]]:
        """Per rotation: which flat-row byte each stored byte of a row is.

        A *flat row* is the row's encoded columns concatenated in schema
        order plus one zero sentinel byte, which every padding byte
        points at. ``plans[rotation]`` has shape ``(devices, Σ row_width)``:
        entry ``[device, offsets[p] + b]`` indexes the flat-row byte stored
        at byte ``b`` of that device's slot of part ``p``. Rotation is constant
        within a circulant block (§4.2), so one plan serves a whole block.
        """
        widths = [c.width for c in self.schema]
        starts = dict(zip(self.schema.column_names, accumulate(widths, initial=0)))
        sentinel = self.schema.row_bytes
        offsets = list(accumulate((part.row_width for part in self.parts), initial=0))
        base = np.full((self.num_devices, offsets[-1]), sentinel, dtype=np.intp)
        for part, offset in zip(self.parts, offsets):
            for slot in part.slots:
                for f in slot.fields:
                    start = starts[f.column] + f.col_offset
                    at = offset + f.slot_offset
                    base[slot.slot_index, at : at + f.length] = np.arange(start, start + f.length)
        plans = tuple(np.roll(base, rotation, axis=0) for rotation in range(self.num_devices))
        return plans, tuple(offsets[:-1])

    def encode_columns(self, columns: Dict[str, np.ndarray], n: int) -> np.ndarray:
        """Encode ``n`` rows given as column arrays to a ``(n, row_bytes +
        1)`` byte matrix.

        Int columns are integer arrays of ``n`` values, ``bytes`` columns
        ``(n, <= width)`` ``uint8`` matrices (NUL-padded to the width).
        Each matrix row is a flat row (see :meth:`_build_row_plans`):
        indexing it with a part's columns of a row plan yields the
        stored bytes of that part, padding zeroed. Rejects what :meth:`Column.encode`
        rejects in its words — with one range check per column instead of
        one per value.
        """
        schema = self.schema
        missing = [c.name for c in schema if c.name not in columns]
        if missing:
            raise SchemaError(f"row for table {schema.name!r} missing columns {missing}")
        flat = np.zeros((n, schema.row_bytes + 1), dtype=np.uint8)
        cursor = 0
        for col in schema:
            values = np.asarray(columns[col.name])
            if col.kind == "int":
                typed = values.dtype.kind in "iu" and values.ndim == 1
            else:
                typed = values.dtype == np.uint8 and values.ndim == 2
            if not typed:
                raise SchemaError(
                    f"column {col.name!r} expects {col.kind}, got {values.dtype.name}"
                )
            if len(values) != n:
                raise SchemaError(
                    f"column {col.name!r} has {len(values)} values for {n} rows"
                )
            if col.kind == "bytes":
                if values.shape[1] > col.width:
                    raise SchemaError(
                        f"value of {values.shape[1]} bytes too long for column "
                        f"{col.name!r} (width {col.width})"
                    )
                flat[:, cursor : cursor + values.shape[1]] = values
            elif n:
                if int(values.min()) < 0 or int(values.max()) > col.max_int:
                    bad = next(v for v in values.tolist() if not 0 <= v <= col.max_int)
                    raise SchemaError(
                        f"value {bad} out of range for column {col.name!r} "
                        f"(width {col.width})"
                    )
                flat[:, cursor : cursor + col.width] = (
                    values.astype("<u8").view(np.uint8).reshape(n, 8)[:, : col.width]
                )
            cursor += col.width
        return flat

    def pack_row(self, values: Dict[str, Value]) -> List[List[np.ndarray]]:
        """Pack a row dict into per-part, per-slot byte arrays.

        Returns ``out[part][slot]`` — an array of ``row_width`` bytes for
        every device slot, padding bytes zeroed.
        """
        encoded = self.schema.encode_row(values)
        out: List[List[np.ndarray]] = []
        for part in self.parts:
            slots: List[np.ndarray] = []
            for slot in part.slots:
                buf = np.zeros(part.row_width, dtype=np.uint8)
                for f in slot.fields:
                    chunk = encoded[f.column][f.col_offset : f.col_offset + f.length]
                    buf[f.slot_offset : f.slot_offset + f.length] = np.frombuffer(
                        chunk, dtype=np.uint8
                    )
                slots.append(buf)
            out.append(slots)
        return out

    def unpack_row(self, packed: Sequence[Sequence[np.ndarray]]) -> Dict[str, Value]:
        """Inverse of :meth:`pack_row`."""
        if len(packed) != self.num_parts:
            raise LayoutError(
                f"expected {self.num_parts} parts, got {len(packed)}"
            )
        raw: Dict[str, bytearray] = {
            c.name: bytearray(c.width) for c in self.schema
        }
        for part, slots in zip(self.parts, packed):
            if len(slots) != part.num_slots:
                raise LayoutError(
                    f"part {part.index}: expected {part.num_slots} slots, "
                    f"got {len(slots)}"
                )
            for slot, buf in zip(part.slots, slots):
                arr = np.asarray(buf, dtype=np.uint8)
                if len(arr) != part.row_width:
                    raise LayoutError(
                        f"part {part.index} slot {slot.slot_index}: expected "
                        f"{part.row_width} bytes, got {len(arr)}"
                    )
                for f in slot.fields:
                    raw[f.column][f.col_offset : f.col_offset + f.length] = arr[
                        f.slot_offset : f.slot_offset + f.length
                    ].tobytes()
        return {
            c.name: c.decode(bytes(raw[c.name])) for c in self.schema
        }

    def describe(self) -> Dict:
        """Structured description of the layout (for tooling/inspection).

        Returns a plain-dict tree: per part, per slot, the placed byte
        runs — the same information Fig. 3c/Fig. 4 draw.
        """
        return {
            "table": self.schema.name,
            "num_devices": self.num_devices,
            "key_columns": list(self.key_columns),
            "bytes_per_row": self.bytes_per_row(),
            "padding_bytes_per_row": self.padding_bytes_per_row(),
            "parts": [
                {
                    "index": part.index,
                    "row_width": part.row_width,
                    "slots": [
                        {
                            "slot": slot.slot_index,
                            "fields": [
                                {
                                    "column": f.column,
                                    "col_offset": f.col_offset,
                                    "slot_offset": f.slot_offset,
                                    "length": f.length,
                                }
                                for f in slot.fields
                            ],
                        }
                        for slot in part.slots
                    ],
                }
                for part in self.parts
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        widths = [p.row_width for p in self.parts]
        return (
            f"UnifiedLayout(table={self.schema.name!r}, parts={widths}, "
            f"keys={len(self.key_columns)})"
        )
