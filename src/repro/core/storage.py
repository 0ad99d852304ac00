"""Physical table storage: layouts bound to devices (§4, §5.1, Fig. 6a).

:class:`TableStorage` places one table's unified-format parts into the
devices of a :class:`~repro.pim.memory.Rank`:

* every part gets per-device regions for its **data** and **delta** rows,
  allocated block-by-block so no block straddles a bank boundary (a PIM
  unit must reach its whole block bank-locally);
* all devices allocate in lockstep, so a row's slots live at the *same
  local address* on every device — the ADE alignment the CPU's interleaved
  access needs;
* the block-circulant placement decides *which* device holds *which* slot
  of each row (§4.2);
* per-device copies of the snapshot bitmaps (data + delta region) occupy a
  dedicated, ADE-aligned region (§5.2, Fig. 6a).

The same class serves both functional byte movement and scan planning
for the OLAP operators (:meth:`TableStorage.column_scan_plan` walks a
key column's blocks from any block on, so a growing plan walks only the
blocks that changed, and raises for rows past the region's allocated
blocks). Because of the ADE alignment, whole-row movement is a column
slice of the rank's byte matrix — ``rank.mem[:, addr:addr+W]`` is one
row's slots on every device — so a row copy is one ``W``-byte item per
device and part, a defragmentation pass one gather and one store of
``W``-byte items per part (:meth:`TableStorage.copy_rows`, through the
part's :func:`~repro.pim.memory.byte_runs` view), and a bitmap update one
broadcast of the changed byte range (:meth:`TableStorage.write_bitmap`).

Reads index the same matrix through one *read plan* per column — the
geometry of each of its byte runs, resolved once (:class:`_ReadRun`).
:meth:`TableStorage.read_rows` executes a plan for many rows at a time:
one item gather ``byte_runs(mem, length)[device, addr]`` per run,
whatever blocks and rotations the rows sit in, returning column arrays;
:meth:`TableStorage.read_column_values` is ``read_rows`` over a prefix.
The bulk load writes through the same plans: per block, one zeroing
store per part, then one strided store of ``length``-byte items per run
(:meth:`TableStorage.write_column_rows`, from column arrays).
The one-row calls resolve a *row shape* (the column names one call gives)
into those plans once, so per row only the shape's plan runs:
:meth:`TableStorage.read_row` with slices ``Rank.flat[a:a+n]`` (a one-row
gather costs several times a slice, so it is not ``read_rows`` of one), an
update's :meth:`TableStorage.write_columns` by encoding in schema order, one
item copy per part for its source, then a changed run per ``flat`` slice.
:meth:`TableStorage.write_row` gathers the row once through the layout's
row plan for its rotation, then stores a part per ADE slice. An ``int`` in
an int column is encoded by ``int.to_bytes`` (its ``OverflowError`` is
:meth:`Column.encode`'s range check), any other value by ``Column.encode``.

The one-row calls take a version the way the MVCC journal names it,
``(row_id, delta)``: ``delta ≥ 0`` is a delta-region row and −1 the
row's data slot. The block calls take a region tag once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, LayoutError, MemoryError_, SchemaError
from repro.format.circulant import BlockCirculantPlacement
from repro.format.layout import UnifiedLayout
from repro.format.schema import Column, Value
from repro.mvcc.metadata import DATA_SLOT, Region
from repro.pim.memory import Rank, byte_runs
from repro.units import ceil_div

__all__ = ["RankAllocator", "BlockScan", "TableStorage", "check_block_rows"]


def check_block_rows(block_rows: int) -> None:
    """Per-block bitmap slices are ``block_rows // 8`` bytes: 8 | block_rows > 0."""
    if block_rows < 1 or block_rows % 8:
        raise ConfigError(f"block_rows must be a positive multiple of 8, got {block_rows}")


class _ReadRun(NamedTuple):
    """Where one byte run of a column sits in any row (a read plan entry).

    The run's bytes for row ``r`` of region ``g`` (0 data, 1 delta) are
    ``mem[(slot + rotation) % d, a : a + length]`` with ``a = bases[g]
    [block] + within * row_width + slot_offset``, i.e. ``Rank.flat[f :
    f + length]`` with ``f = at[rotation] + a - slot_offset``; they are
    bytes ``col_offset : col_offset + length`` of the column's value.
    """

    slot: int
    slot_offset: int
    col_offset: int
    length: int
    row_width: int
    #: Per region, the part's block base addresses: as lists for the
    #: scalar reader, as arrays for the gather.
    bases: Tuple[List[int], List[int]]
    base_arrays: Tuple[np.ndarray, np.ndarray]
    #: Per rotation, ``(slot + rotation) % d * device_bytes + slot_offset``.
    at: Tuple[int, ...]


class RankAllocator:
    """Lockstep allocator for per-device regions of a rank.

    All devices have identical layouts, so a single cursor serves the
    whole rank. :meth:`alloc_blocks` guarantees each returned range stays
    within one bank (advancing to the next bank when needed).
    """

    def __init__(self, rank: Rank) -> None:
        self.rank = rank
        self.bank_size = rank.devices[0].bank_size
        self.device_size = rank.devices[0].size
        self._cursor = 0

    def alloc_blocks(self, nbytes: int, count: int = 1, align: int = 8) -> List[int]:
        """Allocate ``count`` blocks of ``nbytes``, each at the cursor rounded
        up to ``align`` or, if it would straddle a bank boundary, at the next
        bank's start; the rest of a bank after an aligned block is placed at
        once. Exhaustion names the first block that does not fit and allocates none."""
        if nbytes <= 0:
            raise MemoryError_(f"allocation size must be positive, got {nbytes}")
        if nbytes > self.bank_size:
            raise MemoryError_(
                f"block of {nbytes} B exceeds bank size {self.bank_size} B"
            )
        step = ceil_div(nbytes, align) * align
        out: List[int] = []
        cursor = self._cursor
        while len(out) < count:
            at = ceil_div(cursor, align) * align
            if at // self.bank_size != (at + nbytes - 1) // self.bank_size:
                at = (at // self.bank_size + 1) * self.bank_size
            if at + nbytes > self.device_size:
                raise MemoryError_(
                    f"device memory exhausted: need {nbytes} B at {at}, "
                    f"device size {self.device_size} B"
                )
            bank_end = (at // self.bank_size + 1) * self.bank_size
            fits = 1 if at % align else (bank_end - at - nbytes) // step + 1
            n = min(fits, count - len(out))
            out.extend(range(at, at + n * step, step))
            cursor = out[-1] + nbytes
        self._cursor = cursor
        return out


@dataclass(frozen=True)
class BlockScan:
    """One block's worth of column-scan work for one PIM unit.

    ``device`` identifies the unit (via its bank); ``dram_addr`` is the
    bank-local address of the first row's column bytes; rows advance by
    ``stride`` (the part row width) and each row contributes ``chunk``
    useful bytes.
    """

    block: int
    base_row: int
    num_rows: int
    device: int
    bank: int
    dram_addr: int
    stride: int
    chunk: int


class TableStorage:
    """One table's bytes, regions, and bitmaps inside a rank."""

    def __init__(
        self,
        rank: Rank,
        allocator: RankAllocator,
        layout: UnifiedLayout,
        capacity_rows: int,
        delta_capacity_rows: int,
        block_rows: int = 1024,
        circulant: bool = True,
    ) -> None:
        check_block_rows(block_rows)
        if layout.num_devices != rank.num_devices:
            raise LayoutError(
                f"layout expects {layout.num_devices} devices, rank has "
                f"{rank.num_devices}"
            )
        self.rank = rank
        self.layout = layout
        self.placement = BlockCirculantPlacement(
            rank.num_devices, block_rows, enabled=circulant
        )
        self.block_rows = block_rows
        self.capacity_rows = capacity_rows
        self.delta_capacity_rows = delta_capacity_rows
        data_blocks = ceil_div(max(capacity_rows, 1), block_rows)
        delta_blocks = ceil_div(max(delta_capacity_rows, 1), block_rows)
        # Per part: local base address of every data / delta block.
        self._data_blocks: List[List[int]] = []
        self._delta_blocks: List[List[int]] = []
        for part in layout.parts:
            block_bytes = block_rows * part.row_width
            self._data_blocks.append(allocator.alloc_blocks(block_bytes, data_blocks))
            self._delta_blocks.append(allocator.alloc_blocks(block_bytes, delta_blocks))
        # Bitmap copies: one bit per region row, every device stores one. A
        # base aligned to a block's block_rows / 8 bytes keeps per-block
        # bitmap slices byte-aligned.
        self.data_bitmap_addr, self.delta_bitmap_addr = (
            allocator.alloc_blocks(self._bitmap_bytes(region), align=max(8, block_rows // 8))[0]
            for region in (Region.DATA, Region.DELTA)
        )
        # Per part: row width, per-region block bases (whole-row stores) and
        # the offset of its columns in the layout's row plans.
        self._parts = tuple(
            (part.row_width, (self._data_blocks[part.index], self._delta_blocks[part.index]), at)
            for part, at in zip(layout.parts, layout.part_offsets)
        )
        # Per part, the same block bases as arrays (the read plans' gathers).
        self._base_arrays = tuple(
            tuple(np.asarray(bases, dtype=np.intp) for bases in regions) for _, regions, _ in self._parts
        )
        # A block's rotation is ``block % _rotations`` (one rotation, 0, without the circulant).
        self._rotations = rank.num_devices if circulant else 1
        # Per column in schema order: name, int width (0: bytes) and Column.encode.
        self._codec = tuple((c.name, c.width * (c.kind == "int"), c.encode) for c in layout.schema)
        # Per part, the rank as W-byte items: a source copy is one item per device.
        self._part_items = tuple(byte_runs(rank.mem, width)[:, :, 0] for width, _, _ in self._parts)
        # Per-column plans, shared by read_rows, read_column_values and the
        # row-shape plans: a column's runs are immutable once the layout
        # validates, so they are resolved on the first touch of the name.
        self._read_plans: Dict[str, Tuple[Column, Tuple[_ReadRun, ...]]] = {}
        # read_row's and write_columns' plans per row shape (the names one
        # call gives), built on its first call; a shape that raises is not kept.
        self._row_plans: Dict[Optional[Tuple[str, ...]], Tuple] = {}
        self._write_plans: Dict[Tuple[str, ...], Tuple] = {}
        # write_column_rows' plan, built on its first call: per column run, its
        # column, read-plan entry (not cached as the column's read plan) and
        # targets, the rank as blocks of block_rows items from any flat address.
        self._load_plan: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def _region_blocks(self, region: str, part_index: int) -> List[int]:
        return (
            self._data_blocks[part_index]
            if region == Region.DATA
            else self._delta_blocks[part_index]
        )

    def _region_capacity(self, region: str) -> int:
        return self.capacity_rows if region == Region.DATA else self.delta_capacity_rows

    # ------------------------------------------------------------------
    # Row I/O (functional)
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(codec: Tuple, values: Dict[str, Value]) -> List[bytes]:
        """``Column.encode`` of each ``codec`` column's value, in order: an
        ``int`` in an int column straight through ``int.to_bytes``, whose
        ``OverflowError`` is a value ``Column.encode`` rejects in its words."""
        out = []
        try:
            for name, width, encode in codec:
                v = values[name]
                out.append(v.to_bytes(width, "little") if type(v) is int and width else encode(v))
        except OverflowError:
            encode(v)  # raises
        return out

    def write_row(self, row_id: int, delta: int, values: Dict[str, Value]) -> None:
        """Pack and store a full row as version ``(row_id, delta)``:
        :meth:`write_column_rows`' bytes for one row, one gather of the flat
        row through the rotation's row plan, then one ``mem[:, lo:lo+W]``
        store per part. The range is checked before the row is encoded; a
        missing column or a bad value raises
        :meth:`~repro.format.schema.TableSchema.encode_row`'s error."""
        region, row = self._locate(row_id, delta)
        try:
            raw = self._encode(self._codec, values)
        except (KeyError, SchemaError):
            self.layout.schema.encode_row(values)  # raises: missing columns before bad values
            raise
        block, within = divmod(row, self.block_rows)
        flat = np.frombuffer(b"".join([*raw, b"\x00"]), dtype=np.uint8)
        stored = flat[self.layout.row_plans[block % self._rotations]]
        for width, bases, at in self._parts:
            lo = bases[region][block] + within * width
            self.rank.mem[:, lo : lo + width] = stored[:, at : at + width]

    def write_column_rows(
        self, region: str, start: int, columns: Dict[str, np.ndarray], n: int
    ) -> None:
        """Pack and store ``n`` rows given as column arrays at consecutive
        indices from ``start``: the bulk-load entry.

        All-or-nothing: the range and every column (:meth:`_column_bytes`)
        are checked before any byte is stored. Per block, one ADE-wide store
        zeroes each part's ``mem[:, lo:lo + count·W]`` (padding stays zero on
        reused memory), then each run of the columns' read plans is one
        strided store of ``length``-byte items, ``row_width`` apart.
        """
        capacity = self._region_capacity(region)
        if start < 0 or start + n > capacity:
            first_bad = start if start < 0 else max(start, capacity)
            raise MemoryError_(
                f"table {self.layout.schema.name!r} {region} region: row "
                f"{first_bad} out of range [0, {capacity}) writing "
                f"{n} rows from {start}"
            )
        raw = self._column_bytes(columns, n)
        if self._load_plan is None:
            flat = self.rank.mem.reshape(1, -1)
            self._load_plan = tuple(
                (name, run, byte_runs(flat, run.length, self.block_rows, run.row_width)[0])
                for name in self.layout.schema.column_names
                for run in self._read_plan(name, keep=False)[1]
            )
        mem = self.rank.mem
        region_index = 0 if region == Region.DATA else 1
        done = 0
        while done < n:
            block, within = divmod(start + done, self.block_rows)
            count = min(self.block_rows - within, n - done)
            rotation = block % self._rotations
            for width, bases, _ in self._parts:
                lo = bases[region_index][block] + within * width
                mem[:, lo : lo + count * width] = 0
            for name, run, targets in self._load_plan:
                items = raw[name][done : done + count, run.col_offset : run.col_offset + run.length]
                first = run.at[rotation] + run.bases[region_index][block]
                targets[first, within : within + count] = items.view(f"V{run.length}")[:, 0]
            done += count

    def _column_bytes(self, columns: Dict[str, np.ndarray], n: int) -> Dict[str, np.ndarray]:
        """Each column (an integer array, or an ``(n, <= width)`` ``uint8``
        matrix for bytes) as a C-contiguous byte matrix: ``<u8`` bytes, or
        NUL-padded to the width. Rejects what :meth:`Column.encode` rejects,
        in its words, with one range check per column: missing columns (all
        named), then per column in schema order its type, its length, a
        bytes value too long and the first int out of range."""
        schema = self.layout.schema
        missing = [c.name for c in schema if c.name not in columns]
        if missing:
            raise SchemaError(f"row for table {schema.name!r} missing columns {missing}")
        out: Dict[str, np.ndarray] = {}
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
                raw = values
                if values.shape[1] < col.width or not values.flags.c_contiguous:
                    raw = np.zeros((n, col.width), dtype=np.uint8)
                    raw[:, : values.shape[1]] = values
            else:
                if n and (int(values.min()) < 0 or int(values.max()) > col.max_int):
                    bad = next(v for v in values.tolist() if not 0 <= v <= col.max_int)
                    raise SchemaError(
                        f"value {bad} out of range for column {col.name!r} "
                        f"(width {col.width})"
                    )
                # In range, an int64's bytes are its uint64 bytes: no copy.
                wide = values if values.dtype.str in ("<i8", "<u8") else values.astype("<u8")
                raw = np.ascontiguousarray(wide).view(np.uint8).reshape(n, 8)
            out[col.name] = raw
        return out

    def _read_plan(self, name: str, keep: bool = True) -> Tuple[Column, Tuple[_ReadRun, ...]]:
        """Resolve (and, if ``keep``, cache) one column's read plan.

        Unknown columns raise here, on first touch, as does a one-run
        column short of its width (``read_row`` skips ``Column.decode``'s check).
        """
        col = self.layout.schema.column(name)
        d, size = self.rank.mem.shape
        runs = []
        for run in self.layout.column_runs(name):
            p = run.placement
            row_width, bases, _ = self._parts[run.part_index]
            runs.append(
                _ReadRun(
                    run.slot_index,
                    p.slot_offset,
                    p.col_offset,
                    p.length,
                    row_width,
                    bases,
                    self._base_arrays[run.part_index],
                    tuple((run.slot_index + r) % d * size + p.slot_offset for r in range(d)),
                )
            )
        if len(runs) == 1 and runs[0].length != col.width:
            raise LayoutError(
                f"table {self.layout.schema.name!r}: column {name!r} is one run of "
                f"{runs[0].length} B, not {col.width} B"
            )
        plan = (col, tuple(runs))
        if keep:
            self._read_plans[name] = plan
        return plan

    def _row_plan(self, shape: Optional[Tuple[str, ...]]) -> Tuple:
        """:meth:`read_row`'s plan for a shape (None: every column), cached:
        ``(name, None, run)`` for one run of an int column, else ``(name, column, runs)``."""
        plan = []
        for name in self.layout.schema.column_names if shape is None else shape:
            col, runs = self._read_plans.get(name) or self._read_plan(name)
            one = len(runs) == 1 and col.kind == "int"
            plan.append((name, None, runs[0]) if one else (name, col, runs))
        self._row_plans[shape] = plan = tuple(plan)
        return plan

    def read_row(
        self, row_id: int, delta: int, columns: Optional[Sequence[str]] = None
    ) -> Dict[str, Value]:
        """Read and decode version ``(row_id, delta)`` (all columns by
        default).

        Only the byte runs of ``columns`` are read — the OLTP fast path
        for partial reads. The scalar executor of the shape's plan: one range
        check and one ``divmod`` for the row, then one slice of ``Rank.flat``
        per run. Values are ``int`` or ``bytes``, never views.
        """
        region, row = self._locate(row_id, delta)
        shape = None if columns is None else tuple(columns)
        plan = self._row_plans.get(shape)
        if plan is None:
            plan = self._row_plan(shape)
        block, within = divmod(row, self.block_rows)
        rotation = block % self._rotations
        flat = self.rank.flat
        out: Dict[str, Value] = {}
        for name, col, runs in plan:
            if col is None:
                # Common case, ``runs`` the one run of an int column (all
                # key columns and most normal columns).
                _, _, _, length, row_width, bases, _, at = runs
                a = at[rotation] + bases[region][block] + within * row_width
                out[name] = int.from_bytes(flat[a : a + length], "little")
            else:
                buf = bytearray(col.width)
                for _, _, col_offset, length, row_width, bases, _, at in runs:
                    a = at[rotation] + bases[region][block] + within * row_width
                    buf[col_offset : col_offset + length] = flat[a : a + length]
                out[name] = col.decode(bytes(buf))
        return out

    def read_rows(
        self, region: str, rows: Sequence[int], columns: Sequence[str]
    ) -> Dict[str, np.ndarray]:
        """Read ``columns`` of many rows of one region as column arrays.

        ``rows`` may be unsorted, repeat, or be empty; the arrays follow
        its order. Int columns come back as ``uint64``, ``bytes`` columns
        as an ``(n, width)`` ``uint8`` matrix (trailing NULs kept). The
        batch executor of the read plans: each run is one gather of
        ``length``-byte items from the rank matrix — device and address
        per row — into the column's zero-padded byte buffer.
        """
        rows = np.asarray(rows, dtype=np.intp)
        self._check_rows(region, rows)
        block, within = np.divmod(rows, self.block_rows)
        num_devices = self.rank.num_devices
        rotation = block % self._rotations
        region_index = 0 if region == Region.DATA else 1
        mem = self.rank.mem
        out: Dict[str, np.ndarray] = {}
        for name in columns:
            col, runs = self._read_plans.get(name) or self._read_plan(name)
            is_int = col.kind == "int"
            buf = np.zeros((rows.size, 8 if is_int else col.width), dtype=np.uint8)
            for run in runs:
                device = (run.slot + rotation) % num_devices
                addr = (
                    run.base_arrays[region_index][block]
                    + within * run.row_width
                    + run.slot_offset
                )
                items = byte_runs(mem, run.length)[device, addr]
                buf[:, run.col_offset : run.col_offset + run.length] = items.view(np.uint8)
            out[name] = buf.view("<u8").ravel() if is_int else buf
        return out

    def _write_plan(self, shape: Tuple[str, ...]) -> Tuple:
        """:meth:`write_columns`' plan for a shape, cached: the changed
        columns' ``_codec`` entries in schema order, and their runs. An
        unknown name raises."""
        runs = {name: (self._read_plans.get(name) or self._read_plan(name))[1] for name in shape}
        codec = tuple(entry for entry in self._codec if entry[0] in runs)
        self._write_plans[shape] = plan = (codec, tuple(runs[name] for name, _, _ in codec))
        return plan

    def write_columns(
        self, row_id: int, src_delta: int, dst_delta: int, values: Dict[str, Value]
    ) -> None:
        """Store version ``(row_id, dst_delta)`` as ``(row_id, src_delta)``
        with ``values``' columns replaced: an update, or a row copy if empty.

        All-or-nothing: the shape's plan raises first for a name outside the
        schema (the first in ``values``' order); ``values`` are then encoded in
        schema order (the order :meth:`~repro.format.layout.UnifiedLayout.pack_row`
        validates, so encode errors match :meth:`write_row`'s) and the versions'
        rotations and ranges checked. Only then does the source move, device-locally
        since a row's versions share a rotation — one item copy per part, none when
        ``src_delta == dst_delta`` — and each changed run is one ``flat`` slice.
        """
        shape = tuple(values)
        codec, column_runs = self._write_plans.get(shape) or self._write_plan(shape)
        encoded = self._encode(codec, values)
        if src_delta != dst_delta:
            # Rotations before ranges, so a mismatch names any pair; a
            # negative row has no block, so its range check names it.
            src = row_id if src_delta == DATA_SLOT else src_delta
            dst = row_id if dst_delta == DATA_SLOT else dst_delta
            rows = self.block_rows
            if min(src, dst) >= 0 and (src // rows - dst // rows) % self._rotations:
                names = (Region.DATA, Region.DELTA)
                raise self._rotation_mismatch(
                    (names[src_delta != DATA_SLOT], src), (names[dst_delta != DATA_SLOT], dst)
                )
            src_region, src = self._locate(row_id, src_delta)
        region, row = self._locate(row_id, dst_delta)
        block, within = divmod(row, self.block_rows)
        if src_delta != dst_delta:
            src_block, src_within = divmod(src, self.block_rows)
            for (width, bases, _), items in zip(self._parts, self._part_items):
                lo = bases[src_region][src_block] + src_within * width
                to = bases[region][block] + within * width
                items[:, to] = items[:, lo]
        rotation = block % self._rotations
        flat = self.rank.flat
        for raw, runs in zip(encoded, column_runs):
            for _, _, col_offset, length, row_width, bases, _, at in runs:
                a = at[rotation] + bases[region][block] + within * row_width
                flat[a : a + length] = raw[col_offset : col_offset + length]

    def _locate(self, row_id: int, delta: int) -> Tuple[int, int]:
        """Version ``(row_id, delta)`` as ``(region, row)``, range-checked.

        The region is a plan index: 0 for the row's data slot (``delta ==
        DATA_SLOT``), 1 for delta-region row ``delta``. Any other negative
        ``delta`` is a delta row out of range.
        """
        region, row = (0, row_id) if delta == DATA_SLOT else (1, delta)
        capacity = self.delta_capacity_rows if region else self.capacity_rows
        if row < 0 or row >= capacity:
            raise MemoryError_(
                f"table {self.layout.schema.name!r}: {(Region.DATA, Region.DELTA)[region]} "
                f"row {row} out of range [0, {capacity})"
            )
        return region, row

    def copy_rows(
        self,
        src_region: str,
        src_rows: Sequence[int],
        dst_region: str,
        dst_rows: Sequence[int],
    ) -> None:
        """Copy many (src, dst) row pairs — defragmentation's move: per
        part, one gather and one store of ``W``-byte items (:func:`byte_runs`).

        Destinations must be distinct and disjoint from the sources (delta
        → data moves are), so the result equals copying in order. Checks
        src range, then dst range, then rotation, before any byte moves.
        """
        src = np.asarray(src_rows, dtype=np.intp)
        dst = np.asarray(dst_rows, dtype=np.intp)
        self._check_rows(src_region, src)
        self._check_rows(dst_region, dst)
        src_block, src_within = np.divmod(src, self.block_rows)
        dst_block, dst_within = np.divmod(dst, self.block_rows)
        bad = np.flatnonzero((src_block - dst_block) % self._rotations)
        if bad.size:
            i = bad[0]
            raise self._rotation_mismatch((src_region, int(src[i])), (dst_region, int(dst[i])))
        src_index, dst_index = (0 if r == Region.DATA else 1 for r in (src_region, dst_region))
        for (width, _, _), bases, items in zip(self._parts, self._base_arrays, self._part_items):
            items[:, bases[dst_index][dst_block] + dst_within * width] = items[
                :, bases[src_index][src_block] + src_within * width
            ]

    def _rotation_mismatch(self, src: Tuple[str, int], dst: Tuple[str, int]) -> LayoutError:
        """A copy's rotation mismatch, naming the table and the first bad
        (source, destination) pair, each a ``(region, row)``."""
        named = " -> ".join(
            f"{region} row {row} (rotation {row // self.block_rows % self._rotations})"
            for region, row in (src, dst)
        )
        return LayoutError(
            f"table {self.layout.schema.name!r}: a row copy requires matching rotations "
            f"(delta rows are allocated rotation-aligned for this reason): {named}"
        )

    def _check_rows(self, region: str, rows: np.ndarray) -> None:
        capacity = self._region_capacity(region)
        bad = rows[(rows < 0) | (rows >= capacity)]
        if bad.size:
            raise MemoryError_(
                f"table {self.layout.schema.name!r}: {region} row {int(bad[0])} "
                f"out of range [0, {capacity})"
            )

    # ------------------------------------------------------------------
    # Snapshot bitmaps (functional, per-device copies)
    # ------------------------------------------------------------------
    def bitmap_addr(self, region: str) -> int:
        """Local base address of a region's bitmap."""
        return self.data_bitmap_addr if region == Region.DATA else self.delta_bitmap_addr

    def _bitmap_bytes(self, region: str) -> int:
        """Bytes of a region's packed bitmap (an empty region keeps one)."""
        return max(1, ceil_div(self._region_capacity(region), 8))

    def write_bitmap(self, region: str, packed: np.ndarray, first_byte: int = 0) -> None:
        """Store packed little-endian bitmap bytes from ``first_byte`` on, to all devices.

        The copies are ADE-aligned, so this is one broadcast store. The byte
        range is checked against the region's bitmap before anything is stored.
        """
        data = np.asarray(packed, dtype=np.uint8)
        size = self._bitmap_bytes(region)
        if first_byte < 0 or first_byte + len(data) > size:
            raise LayoutError(
                f"table {self.layout.schema.name!r}: {region} bitmap store of bytes "
                f"[{first_byte}, {first_byte + len(data)}) outside [0, {size})"
            )
        base = self.bitmap_addr(region) + first_byte
        self.rank.mem[:, base : base + len(data)] = data

    def read_bitmap(self, region: str, device: int = 0) -> np.ndarray:
        """Read one device's bitmap copy."""
        return self.rank.device_read(device, self.bitmap_addr(region), self._bitmap_bytes(region))

    def bitmap_block_slice_addr(self, region: str, block: int) -> int:
        """Local address of the bitmap bytes covering one block's rows."""
        return self.bitmap_addr(region) + block * (self.block_rows // 8)

    def read_column_values(self, region: str, column: str, num_rows: int) -> List:
        """Gather one column's decoded values for rows ``0..num_rows``.

        Works for *any* column — including normal columns split across
        parts. This is the CPU fallback path of §4.1.2 (analytical
        queries on normal columns run through the CPU at reduced
        efficiency); PIM scans use :meth:`column_scan_plan` instead.
        """
        values = self.read_rows(region, np.arange(num_rows), [column])[column]
        if values.ndim == 1:
            return values.tolist()
        return [row.tobytes() for row in values]

    def cpu_scan_bytes(self, column: str, num_rows: int) -> int:
        """CPU bus traffic to scan a column sequentially (§4.1.2 fallback).

        The CPU must stream every part containing any byte of the column:
        each touched part costs ``W × d`` bytes per row.
        """
        parts = {run.part_index for run in self.layout.column_runs(column)}
        per_row = sum(
            self.layout.parts[p].row_width * self.rank.num_devices for p in parts
        )
        return per_row * num_rows

    # ------------------------------------------------------------------
    # Scan planning (for the OLAP operators)
    # ------------------------------------------------------------------
    def column_scan_plan(
        self, column: str, region: str, num_rows: int, first: int = 0
    ) -> Iterator[BlockScan]:
        """Yield per-block scan work for a key column, from block ``first``.

        ``num_rows`` bounds the scan (data region: the table's live rows;
        delta region: the materialized high-water mark). Rows past the
        region's allocated blocks raise :class:`MemoryError_`.
        """
        run = self.layout.key_column_location(column)
        part = self.layout.parts[run.part_index]
        placement = run.placement
        blocks = self._region_blocks(region, run.part_index)
        if num_rows > len(blocks) * self.block_rows:
            raise MemoryError_(
                f"table {self.layout.schema.name!r}: {region} scan of {num_rows} rows "
                f"past its {len(blocks)} blocks of {self.block_rows} rows"
            )
        bank_size = self.rank.devices[0].bank_size
        for block in range(first, ceil_div(num_rows, self.block_rows)):
            base_row = block * self.block_rows
            rotation = self.placement.rotation_of_block(block)
            yield BlockScan(
                block=block,
                base_row=base_row,
                num_rows=min(self.block_rows, num_rows - base_row),
                device=(run.slot_index + rotation) % self.rank.num_devices,
                bank=blocks[block] // bank_size,
                dram_addr=blocks[block] + placement.slot_offset,
                stride=part.row_width,
                chunk=placement.length,
            )
