"""Physical OLAP operators executed by PIM units (§6.2, §6.3).

Each operator is a :class:`~repro.pim.executor.ChunkedOperation`: its work
is a queue of its column's blocks per PIM unit, data region first,
chunked so each phase's data fits in half the WRAM. A scan phase is *one*
launch request that every participating unit executes on its own
bank-local blocks, and it runs here as one array operation per step over
all the phase's (unit, slot) pairs:

* **load** — one gather from ``Rank.mem`` of the blocks' column bytes and
  one of their snapshot-bitmap slices, each stored into the rank's WRAM
  matrix (:class:`~repro.pim.pim_unit.RankUnits`) at the blocks' slot
  offsets; an aggregation also stores the blocks' runs of the
  CPU-supplied group indices.
* **compute** — the staged ``(blocks × rows)`` operands are read back
  from the matrix, the operation's Fig. 7b kernel
  (:mod:`repro.pim.pim_unit`) runs once over them, and the result is
  written to the slots' result regions and harvested.

Blocks of a phase that share a row count form one rectangular batch, so a
phase is a single batch unless it holds the partial last block of a
region. Simulated time and the units' work counters depend on the block
geometry alone: they are worked out when the scan is planned (one cost
per distinct row count, summed per unit in slot order) and charged per
phase to the rank's counter matrices, each counter's terms added left to
right in one ``np.add.accumulate``.

That plan (:class:`_ScanPlan`) depends on the region extents and the
operator's shape alone, so it outlives the query: ``RankUnits.scan_plans``
keeps one per shape, and a query over new extents grows it — only the
blocks that changed (a tail that gained rows, appended blocks) are placed
again, unless a region lost blocks. It holds no bytes, only views: ``load``
reads the current snapshot's column and bitmap bytes through them.

Operators collect *functional* results on the Python side, standing in
for the CPU harvesting result buffers (the traffic is modelled via
``cpu_transfer_bytes``). Each result is one array over the scan's rows in
region order — the data rows, then the delta rows (:func:`scan_rows`) —
and each batch stores its blocks into it as one item per block: a
filter's ``mask``, a group scan's local ``indices`` with each row's
``starts`` into the concatenated ``dictionary``, a hash scan's
``hashes`` and ``values``, and an aggregation's running ``total``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import groupby, zip_longest
from operator import add, itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.storage import TableStorage
from repro.errors import MemoryError_, ProtocolError, QueryError
from repro.mvcc.metadata import Region
from repro.pim.memory import byte_runs
from repro.pim.pim_unit import (
    Condition,
    PIMUnit,
    RankUnits,
    aggregation_kernel,
    bytes_to_uints,
    compute_phase_time,
    filter_kernel,
    group_kernel,
    hash_kernel,
    uints_to_bytes,
)
from repro.pim.requests import LaunchRequest, OpType
from repro.pim.timing import stream_time
from repro.units import ceil_div

__all__ = [
    "FilterOperation",
    "GroupOperation",
    "AggregationOperation",
    "HashOperation",
    "RegionRows",
    "scan_rows",
]


@dataclass(frozen=True)
class RegionRows:
    """How many rows to scan in each region: each a non-negative integer."""

    data_rows: int
    delta_rows: int = 0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
                raise QueryError(f"{name} must be a non-negative integer, got {value!r}")


def scan_rows(rows: RegionRows) -> int:
    """Length of a scan's result arrays: its data rows, then its delta rows."""
    return rows.data_rows + rows.delta_rows


class _Batch(NamedTuple):
    """The blocks of one phase that share a row count, as parallel arrays,
    and the staging its runs index (views stay valid: no matrix is rebound)."""

    num_rows: int
    #: Row of each block's unit in the rank's WRAM / counter matrices.
    unit_rows: np.ndarray
    #: WRAM offset of each block's slot.
    base: np.ndarray
    device: np.ndarray
    #: Device-local address of the first row's column bytes / bitmap slice.
    addr: np.ndarray
    bitmap_addr: np.ndarray
    #: Each block's region (1 = delta) and first row within it.
    delta: np.ndarray
    base_row: np.ndarray
    #: Per region, the WRAM start of each block's region.
    starts: Dict[str, np.ndarray]
    #: ``Rank.mem`` as runs of a block's column pieces / of its bitmap slice,
    #: and ``RankUnits.wram`` as runs of each width stored or read (on first use).
    column: np.ndarray
    bitmap: np.ndarray
    wram: Dict[int, np.ndarray]


def _stream_time(unit: PIMUnit, nbytes: int) -> float:
    """Modelled ns for ``unit`` to stream ``nbytes`` at its granularity."""
    return stream_time(nbytes, unit.timings, unit.geometry, unit.config.access_granularity)


class _PhaseCharges:
    """What one phase costs each participating unit, in unit order.

    Built from each unit's (phase, unit) cell (:meth:`_ScanPlan._cell`):
    its modelled per-block terms in slot order and their left-to-right
    sums, as a per-block walk adds them. ``load_terms`` / ``compute_terms``
    keep the terms apart as ``(k, units)`` arrays (row ``k`` = every unit's
    ``k``-th term, 0 past a unit's last), so the rank's time counters can
    be charged term by term in that same order (:func:`_charge`).
    """

    def __init__(self, cells: Sequence[tuple]) -> None:
        load, compute, load_times, compute_times, read_bytes, elements, scanned = zip(*cells)
        self.load_times = list(load_times)
        self.compute_times = list(compute_times)
        self.load_terms = np.array(list(zip_longest(*load, fillvalue=0.0)))
        self.compute_terms = np.array(list(zip_longest(*compute, fillvalue=0.0)))
        #: Per unit: DRAM bytes read, elements processed.
        self.read_bytes = np.array(read_bytes)
        self.elements = np.array(elements)
        #: Column + bitmap bytes the whole phase stages.
        self.scanned = sum(scanned)


class _ScanPlan:
    """Where every block of one scan runs and what each phase costs: the
    (phase, unit, slot) of each block, the per-phase charges, the batches,
    the WRAM offsets and the LS request.

    A function of ``(storage, units, column, shape)`` and the extents
    :attr:`rows` alone — the shape is the operator class and its per-block
    WRAM bytes — and it holds no bytes, so one plan serves every query over
    the same extents. A unit's queue is its data blocks, then its delta
    blocks; queue position ``p`` is (phase, slot) = ``divmod(p, slots per
    phase)``. Plans are grown, never edited (:meth:`grown`): only the blocks
    new extents change are placed, and the cells and phases they touch
    rebuilt. Each placed block is validated before any byte moves: nothing
    to scan, a bank without a unit, the WRAM budget, the stride/chunk and
    the bank range.
    """

    def __init__(
        self,
        storage: TableStorage,
        units: RankUnits,
        column: str,
        shape: Tuple[type, int],
    ) -> None:
        """The empty plan: no extents, no blocks."""
        self.source = (storage, units, column, shape)
        self.width = width = storage.layout.schema.column(column).width
        block = storage.block_rows
        data = block // 8
        aux = data + block * width
        #: WRAM offsets of a block's regions within its slot.
        self.offsets = {
            "bitmap": 0,
            "data": data,
            "aux": aux,
            "result": aux + shape[0]._aux_bytes_per_block(storage, width),
        }
        self.rows = RegionRows(0, 0)
        self.stride = self.piece = 0
        self.load_request: Optional[LaunchRequest] = None
        self.unit_rows = np.array([], dtype=np.intp)
        self.units: List[PIMUnit] = []
        self.charges: List[_PhaseCharges] = []
        self.batches: List[List[_Batch]] = []
        # The unit keys, sorted as ``units``; per key, [its queue of block
        # entries, how many are data blocks]; per (phase, unit key), the
        # unit's charges for the phase and its batch rows; per row count,
        # one block's :meth:`_block_costs`.
        self._keys, self._queues, self._cells, self._costs = [], {}, {}, {}

    def grown(self, rows: RegionRows) -> _ScanPlan:
        """The plan for extents ``rows``: grown from this one if each
        region keeps its blocks, else from the empty plan. This plan is
        left as it was, also when growth raises."""
        storage, units, column, (cls, block_wram_bytes) = self.source
        name, block = storage.layout.schema.name, storage.block_rows
        extents = (
            (Region.DATA, self.rows.data_rows, rows.data_rows),
            (Region.DELTA, self.rows.delta_rows, rows.delta_rows),
        )
        kept = {region: ceil_div(old, block) for region, old, _ in extents}
        if any(ceil_div(new, block) < kept[region] for region, _, new in extents):
            return _ScanPlan(*self.source).grown(rows)
        # Walk only the blocks that change, in scan order: a region's old
        # tail if its row count moved, then its appended blocks.
        scans = []
        for region, old, new in extents:
            tail = (kept[region] - 1) * block
            first = kept[region] - (tail >= 0 and min(block, new - tail) != old - tail)
            if first < ceil_div(new, block):
                scans += [
                    (scan, region)
                    for scan in storage.column_scan_plan(column, region, new, first)
                ]
        if not (scans or self._queues):
            raise QueryError(f"table {name!r}: nothing to scan for column {column!r}")
        missing = sorted({key for s, _ in scans if (key := (s.device, s.bank)) not in units})
        if missing:
            raise QueryError(f"table {name!r}: no PIM unit for banks {missing}")
        budget = next(iter(units.values())).config.load_buffer_bytes
        if block_wram_bytes > budget:
            raise QueryError(
                f"table {name!r}: one block needs {block_wram_bytes} B of WRAM, "
                f"budget is {budget} B"
            )
        slots = max(1, budget // block_wram_bytes)
        plan = object.__new__(_ScanPlan)
        plan.__dict__ = {**vars(self), "rows": rows}
        if scans:
            first, first_region = scans[0]
            plan.stride, plan.piece = first.stride, first.chunk
            if plan.piece <= 0 or plan.stride < plan.piece:
                raise ProtocolError(
                    f"table {name!r}: invalid stride/chunk {plan.stride}/{plan.piece}"
                )
            if (first_region, first.block) == (
                Region.DATA if rows.data_rows > 0 else Region.DELTA, 0
            ):
                plan.load_request = LaunchRequest(
                    OpType.LS,
                    {
                        "op0_addr": first.dram_addr % (1 << 24),
                        "op0_len": min(first.num_rows * plan.width, 0xFFFF),
                        "op0_stride": first.stride,
                        "result_addr": 0,
                    },
                )
        # Place each walked block in its unit's queue, copied on first
        # touch: a changed tail in place, an appended delta block last, an
        # appended data block after the unit's data blocks — which moves
        # each of its delta blocks back a slot, so they are placed again.
        bitmap_bytes = block // 8
        costs = plan._costs = dict(self._costs)
        queues = plan._queues = dict(self._queues)
        placed: Dict[Tuple[int, int], set] = {}
        for scan, region in scans:
            key = (scan.device, scan.bank)
            unit, count = units[key], scan.num_rows
            if count not in costs:
                costs[count] = plan._block_costs(unit, cls, bitmap_bytes, count)
            touched = costs[count][0]
            offset = scan.dram_addr - unit.bank.start
            if offset < 0 or offset + touched > unit.bank.size:
                raise MemoryError_(
                    f"table {name!r}: bank {unit.bank.index} access "
                    f"[{offset}, {offset + touched}) out of range (size {unit.bank.size})"
                )
            in_data = region == Region.DATA
            entry = (count, unit.unit_id, scan.device, scan.dram_addr,
                     storage.bitmap_block_slice_addr(region, scan.block),
                     int(not in_data), scan.base_row, costs[count])
            if key not in placed:
                entries, data = queues.get(key, ((), 0))
                queues[key], placed[key] = [list(entries), data], set()
            queue = queues[key]
            entries, data = queue
            if scan.block < kept[region]:
                at = data - 1 if in_data else len(entries) - 1
                entries[at] = entry
                placed[key].add(at)
            else:
                at = data if in_data else len(entries)
                entries.insert(at, entry)
                queue[1] += in_data
                placed[key].update(range(at, len(entries)))
        # Rebuild the touched cells, then the touched phases — every phase
        # if a unit joined the scan.
        cells = plan._cells = dict(self._cells)
        phases = set()
        for key, positions in placed.items():
            entries = queues[key][0]
            for phase in {position // slots for position in positions}:
                cells[phase, key] = plan._cell(
                    entries[phase * slots : (phase + 1) * slots], bitmap_bytes, block_wram_bytes
                )
                phases.add(phase)
        chunks = max([len(self.charges)] + [ceil_div(len(queues[key][0]), slots) for key in placed])
        plan.charges = self.charges + [None] * (chunks - len(self.charges))
        plan.batches = self.batches + [None] * (chunks - len(self.batches))
        if len(queues) > len(self._queues):
            plan._keys = sorted(queues)
            plan.units = [units[key] for key in plan._keys]
            plan.unit_rows = np.array([unit.unit_id for unit in plan.units])
            phases = range(chunks)
        for phase in phases:
            plan._assemble(phase)
        # What all the phases add to the units' DRAM-read and element counters.
        totals = np.sum([(c.read_bytes.sum(), c.elements.sum()) for c in plan.charges], axis=0)
        plan.work = tuple(int(total) for total in totals)
        return plan

    def _cell(self, entries: Sequence[tuple], bitmap_bytes: int, slot_bytes: int) -> tuple:
        """One (phase, unit) cell from its block entries in slot order: the
        unit's charges for the phase (terms, and their sums left to right)
        and its batch rows."""
        load, compute, read, elements, scanned, rows = [], [], 0, 0, 0, []
        for slot, (count, unit_id, device, addr, bitmap, *at, costs) in enumerate(entries):
            _, moved, load_terms, compute_time = costs
            load += load_terms
            compute.append(compute_time)
            read += moved + bitmap_bytes
            elements += count
            scanned += count * self.width + bitmap_bytes
            rows.append((count, unit_id, slot * slot_bytes, device, addr, bitmap, *at))
        # The sums run left to right, as a per-block walk adds the terms.
        sums = reduce(add, load, 0.0), reduce(add, compute, 0.0)
        return (load, compute, *sums, read, elements, scanned), rows

    def _assemble(self, phase: int) -> None:
        """One phase's charges and batches, from its cells in unit order."""
        idle = (([], [], 0.0, 0.0, 0, 0, 0), [])
        cells = [self._cells.get((phase, key), idle) for key in self._keys]
        self.charges[phase] = _PhaseCharges([charges for charges, _ in cells])
        # Batches: row count (→ unit → slot), each a table of columns and its staging.
        storage = self.source[0]
        mem = storage.rank.mem
        bitmap = byte_runs(mem, storage.block_rows // 8)
        batches = self.batches[phase] = []
        placed = sorted(row for _, rows in cells for row in rows)
        for count, group in groupby(placed, itemgetter(0)):
            _, *columns = zip(*group)
            columns = np.array(columns, dtype=np.intp)
            starts = {region: columns[1] + offset for region, offset in self.offsets.items()}
            pieces = ceil_div(count * self.width, self.piece)
            column = byte_runs(mem, self.piece, pieces, self.stride)
            batches.append(_Batch(count, *columns, starts, column, bitmap, {}))

    def _block_costs(self, unit: PIMUnit, cls: type, bitmap_bytes: int, num_rows: int) -> tuple:
        """``(bank bytes touched, DRAM bytes moved, load-time terms, compute
        time)`` of one block of ``num_rows`` rows — shape alone decides."""
        touched, moved, load_time = unit.strided_cost(
            num_rows * self.width, self.stride, self.piece
        )
        bitmap_time = _stream_time(unit, bitmap_bytes)
        return (
            touched,
            moved,
            [load_time, bitmap_time] + cls._aux_load_terms(unit, num_rows),
            compute_phase_time(unit.config, num_rows, cls._KIND),
        )


def _charge(times: np.ndarray, rows: np.ndarray, column: int, terms: np.ndarray) -> None:
    """Add each row of ``terms`` in turn to ``times[rows, column]``: one
    ``np.add.accumulate`` down the term axis, the same float adds, in the
    same order, as a loop adding the rows one by one."""
    counters = np.concatenate((times[None, rows, column], terms))
    times[rows, column] = np.add.accumulate(counters, axis=0)[-1]


class _ColumnScanOperation:
    """Shared machinery: WRAM staging and phase charges through a shared
    :class:`_ScanPlan`; an operator holds only its query's harvest,
    ``bytes_scanned`` and ``cpu_transfer_bytes``."""

    #: Bytes of WRAM the result region of one block may use.
    _RESULT_BYTES_PER_BLOCK = 4096
    #: Compute-cost class of the operation's kernel.
    _KIND = ""

    def __init__(
        self,
        storage: TableStorage,
        units: RankUnits,
        column: str,
        rows: RegionRows,
    ) -> None:
        self.storage = storage
        self.units = units
        self.column = column
        self.rows = rows
        self.width = storage.layout.schema.column(column).width
        #: DRAM bytes staged into WRAM by this operation (column + bitmap).
        self.bytes_scanned = 0
        #: Bytes the CPU ships to or harvests from the units' WRAM.
        self.cpu_transfer_bytes = 0
        # The rank's memo holds one plan per shape; new extents replace it
        # with its growth, and a growth that raises stores nothing.
        shape = (type(self), self._per_block_wram_bytes())
        key = (storage, column, *shape)
        plan = units.scan_plans.get(key)
        if plan is None or plan.rows != rows:
            plan = (plan or _ScanPlan(storage, units, column, shape)).grown(rows)
            units.scan_plans[key] = plan
        self._plan: _ScanPlan = plan

    # -- WRAM budget ----------------------------------------------------
    def _per_block_wram_bytes(self) -> int:
        block = self.storage.block_rows
        bitmap = block // 8
        data = block * self.width
        aux = self._aux_bytes_per_block(self.storage, self.width)
        return bitmap + data + aux + self._RESULT_BYTES_PER_BLOCK

    @classmethod
    def _aux_bytes_per_block(cls, storage: TableStorage, width: int) -> int:
        """Extra staged bytes (e.g. index arrays); subclasses override."""
        return 0

    @staticmethod
    def _aux_load_terms(unit: PIMUnit, num_rows: int) -> List[float]:
        """Modelled time(s) to stage one block's extra data; subclasses override."""
        return []

    # -- ChunkedOperation interface --------------------------------------
    def num_chunks(self) -> int:
        """Phases needed to drain the longest unit queue."""
        return len(self._plan.charges)

    def participating_units(self) -> Sequence[PIMUnit]:
        """Units owning at least one block of this scan."""
        return self._plan.units

    def load_request(self, chunk: int) -> LaunchRequest:
        """Representative LS request for the phase (Fig. 7b encoding)."""
        return self._plan.load_request

    def work(self) -> Tuple[int, int]:
        """DRAM bytes read and elements processed by all phases."""
        return self._plan.work

    def compute_request(self, chunk: int) -> LaunchRequest:
        """The operation's compute request (the same for every phase)."""
        return self._compute_request

    def load(self, chunk: int) -> List[float]:
        """Stage bitmap + column bytes of this phase's blocks into WRAM.

        Functionally the bitmap slice is read from the device's bitmap
        copy; each bank keeps a replica of its rows' bits (§5.2), so the
        modelled cost is a local stream of the slice.
        """
        plan = self._plan
        for batch in plan.batches[chunk]:
            column = batch.column[batch.device, batch.addr].view(np.uint8)
            self._write(batch, "data", column[:, : batch.num_rows * self.width])
            bitmap = batch.bitmap[batch.device, batch.bitmap_addr]
            self._write(batch, "bitmap", bitmap.view(np.uint8))
            extra = self._aux_block(batch)
            if extra is not None:
                self._write(batch, "aux", extra)
                self.cpu_transfer_bytes += extra.size
        charges = plan.charges[chunk]
        self.units.counts[plan.unit_rows, 0] += charges.read_bytes
        _charge(self.units.times, plan.unit_rows, 0, charges.load_terms)
        self.bytes_scanned += charges.scanned
        return charges.load_times

    def _aux_block(self, batch: _Batch) -> Optional[np.ndarray]:
        """Operator-specific ``(blocks, bytes)`` extra data to stage."""
        return None

    def compute(self, chunk: int) -> List[float]:
        """Run the operation's kernel over this phase's staged blocks."""
        plan = self._plan
        for batch in plan.batches[chunk]:
            count = batch.num_rows
            values = bytes_to_uints(self._read(batch, "data", count * self.width), self.width)
            bits = np.unpackbits(
                self._read(batch, "bitmap", ceil_div(count, 8)), axis=1, bitorder="little"
            )
            self._compute_batch(batch, values, bits[:, :count].view(bool))
        charges = plan.charges[chunk]
        self.units.counts[plan.unit_rows, 2] += charges.elements
        _charge(self.units.times, plan.unit_rows, 1, charges.compute_terms)
        return charges.compute_times

    def _compute_batch(self, batch: _Batch, values: np.ndarray, visible: np.ndarray) -> None:
        """Kernel + result write + harvest for one batch; ``values`` and
        ``visible`` are ``(blocks, rows)``."""
        raise NotImplementedError

    # -- WRAM matrix access ------------------------------------------------
    def _wram_runs(self, batch: _Batch, nbytes: int) -> np.ndarray:
        """The batch's view of the WRAM matrix as ``nbytes``-byte runs."""
        if nbytes not in batch.wram:
            batch.wram[nbytes] = byte_runs(self.units.wram, nbytes)
        return batch.wram[nbytes]

    def _read(self, batch: _Batch, region: str, nbytes: int) -> np.ndarray:
        """``nbytes`` of every block's ``region`` → ``(blocks, nbytes)``."""
        return self._wram_runs(batch, nbytes)[batch.unit_rows, batch.starts[region]].view(np.uint8)

    def _write(self, batch: _Batch, region: str, data: np.ndarray) -> None:
        """Store ``(blocks, nbytes)`` at the start of every block's ``region``."""
        data = np.ascontiguousarray(data)
        nbytes = data.shape[1]
        runs = self._wram_runs(batch, nbytes)
        runs[batch.unit_rows, batch.starts[region]] = data.view(f"V{nbytes}")

    # -- Scan arrays -------------------------------------------------------
    def _runs(self, array: np.ndarray, batch: _Batch) -> Tuple[np.ndarray, np.ndarray]:
        """Every ``num_rows``-row run of the scan array ``array`` as one
        item (a view), and the byte starts of the batch's blocks in it."""
        nbytes = batch.num_rows * array.itemsize
        starts = batch.base_row + batch.delta * self.rows.data_rows
        return byte_runs(array.view(np.uint8)[None], nbytes)[0], starts * array.itemsize

    def _store(self, array: np.ndarray, batch: _Batch, rows: np.ndarray) -> None:
        """Store ``(blocks, num_rows)`` ``rows`` at the batch's blocks of ``array``."""
        runs, starts = self._runs(array, batch)
        rows = np.ascontiguousarray(rows, dtype=array.dtype)
        runs[starts] = rows.view(f"V{rows.shape[1] * array.itemsize}")

    def _gather(self, array: np.ndarray, batch: _Batch) -> np.ndarray:
        """The batch's blocks of ``array`` as ``(blocks, bytes)``."""
        runs, starts = self._runs(array, batch)
        return runs[starts].view(np.uint8)


class FilterOperation(_ColumnScanOperation):
    """Predicate scan of one key column (Fig. 7b ``Filter``).

    Produces a visibility-anded match per scanned row, harvested into
    :attr:`mask` over the scan's rows.
    """

    _KIND = "filter"

    def __init__(
        self,
        storage: TableStorage,
        units: RankUnits,
        column: str,
        condition: Condition,
        rows: RegionRows,
    ) -> None:
        super().__init__(storage, units, column, rows)
        self.condition = condition
        self.mask = np.zeros(scan_rows(rows), dtype=bool)
        self._compute_request = LaunchRequest(
            OpType.FILTER,
            {"data_width": self.width, "condition": condition.encode()},
        )

    def _compute_batch(self, batch, values, visible) -> None:
        matches = filter_kernel(values, visible, self.condition)
        packed = np.packbits(matches, axis=1, bitorder="little")
        self._write(batch, "result", packed)
        self._store(self.mask, batch, matches)
        self.cpu_transfer_bytes += packed.size


class GroupOperation(_ColumnScanOperation):
    """Group-key scan (Fig. 7b ``Group``): per-block dictionaries + indices.

    Row ``r``'s key is ``dictionary[starts[r] + indices[r]]`` (a hidden
    row's index is 0xFFFF). The CPU merges the dictionaries into global
    group ids afterwards (see :func:`repro.olap.plan.merge_group_blocks`).
    """

    _KIND = "group"
    #: WRAM reserved for the per-block dictionary.
    _DICT_CAPACITY = 256

    def __init__(
        self,
        storage: TableStorage,
        units: RankUnits,
        column: str,
        rows: RegionRows,
    ) -> None:
        super().__init__(storage, units, column, rows)
        #: Each row's index into its block's dictionary.
        self.indices = np.full(scan_rows(rows), 0xFFFF, dtype=np.uint16)
        #: Each row's block's first key in :attr:`dictionary`.
        self.starts = np.zeros(scan_rows(rows), dtype=np.intp)
        #: Every block's dictionary, concatenated in the order they ran.
        self.dictionary = np.zeros(0, dtype=np.uint64)
        self._compute_request = LaunchRequest(OpType.GROUP, {"data_width": self.width})

    @classmethod
    def _aux_bytes_per_block(cls, storage: TableStorage, width: int) -> int:
        return cls._DICT_CAPACITY * width

    def _compute_batch(self, batch, values, visible) -> None:
        dictionaries, indices = group_kernel(values, visible, self._DICT_CAPACITY)
        self._write(batch, "result", indices.view(np.uint8))
        # The dictionaries are ragged: store their bytes through one flat
        # index, block b's run starting at its slot's dictionary region.
        sizes = np.array([len(d) for d in dictionaries]) * self.width
        starts = batch.unit_rows * self.units.wram.shape[1] + batch.starts["aux"]
        ends = np.cumsum(sizes)
        flat = np.repeat(starts - (ends - sizes), sizes) + np.arange(ends[-1])
        dictionary = np.concatenate(dictionaries)
        self.units.wram.reshape(-1)[flat] = uints_to_bytes(dictionary, self.width)
        first = len(self.dictionary) + (ends - sizes) // self.width
        self._store(self.indices, batch, indices)
        self._store(self.starts, batch, np.repeat(first, batch.num_rows).reshape(indices.shape))
        self.dictionary = np.concatenate((self.dictionary, dictionary))
        self.cpu_transfer_bytes += int(ends[-1]) + indices.nbytes


class AggregationOperation(_ColumnScanOperation):
    """Grouped sum of one value column (Fig. 7b ``Aggregation``).

    ``indices`` supplies each scanned row's *global* group id (from a
    prior group scan, merged by the CPU); the CPU transfers each block's
    run of it to the bank holding that block's value column (§6.3), which
    is modelled as aux load traffic. The per-block partial sums add into
    the running :attr:`total`.
    """

    _KIND = "aggregation"

    def __init__(
        self,
        storage: TableStorage,
        units: RankUnits,
        column: str,
        rows: RegionRows,
        indices: np.ndarray,
        num_groups: int,
    ) -> None:
        if num_groups <= 0:
            raise QueryError("num_groups must be positive")
        name, indices = storage.layout.schema.name, np.asarray(indices)
        if indices.shape != (scan_rows(rows),):
            raise QueryError(
                f"table {name!r}: {indices.size} group indices "
                f"for a scan of {scan_rows(rows)} rows"
            )
        # Every dtype is checked before any phase charges a unit: a wide id
        # could wrap in the cast, and a uint16 one could pass its
        # accumulators (the kernel's own check guards ids read from WRAM).
        if indices.dtype.kind not in "iu":
            raise QueryError(f"table {name!r}: group indices of dtype {indices.dtype}")
        bad = np.flatnonzero((indices < 0) | ((indices >= num_groups) & (indices != 0xFFFF)))
        if bad.size:
            raise QueryError(f"table {name!r}: row {bad[0]} has group index "
                             f"{indices[bad[0]]}, outside [0, {num_groups})")
        indices = np.ascontiguousarray(indices, dtype=np.uint16)
        # Set before super().__init__: the plan's shape depends on them.
        self.indices = indices
        self.num_groups = num_groups
        super().__init__(storage, units, column, rows)
        self.total = np.zeros(num_groups, dtype=np.uint64)
        self._compute_request = LaunchRequest(
            OpType.AGGREGATION, {"data_width": self.width}
        )

    @classmethod
    def _aux_bytes_per_block(cls, storage: TableStorage, width: int) -> int:
        return storage.block_rows * 2

    def _per_block_wram_bytes(self) -> int:
        return super()._per_block_wram_bytes() + self.num_groups * 8

    @staticmethod
    def _aux_load_terms(unit: PIMUnit, num_rows: int) -> List[float]:
        # CPU→WRAM transfer rides the memory bus; modelled as a stream.
        return [_stream_time(unit, num_rows * 2)]

    def _aux_block(self, batch: _Batch) -> np.ndarray:
        return self._gather(self.indices, batch)

    def _compute_batch(self, batch, values, visible) -> None:
        indices = self._read(batch, "aux", batch.num_rows * 2).view(np.uint16)
        partials = aggregation_kernel(
            values,
            visible,
            indices,
            np.zeros((len(batch.base), self.num_groups), dtype=np.uint64),
        )
        self._write(batch, "result", partials.view(np.uint8))
        self.total += partials.sum(axis=0, dtype=np.uint64)
        self.cpu_transfer_bytes += partials.nbytes


class HashOperation(_ColumnScanOperation):
    """Key hashing for hash join (Fig. 7b ``Hash``): each scanned row's
    hash (0 for a hidden row) and staged key."""

    _KIND = "hash"

    def __init__(
        self,
        storage: TableStorage,
        units: RankUnits,
        column: str,
        rows: RegionRows,
        hash_function: int = 0,
    ) -> None:
        super().__init__(storage, units, column, rows)
        self.hash_function = hash_function
        self.hashes = np.zeros(scan_rows(rows), dtype=np.uint32)
        self.values = np.zeros(scan_rows(rows), dtype=np.uint64)
        self._compute_request = LaunchRequest(
            OpType.HASH,
            {"data_width": self.width, "hash_function": hash_function},
        )

    def _compute_batch(self, batch, values, visible) -> None:
        hashes = hash_kernel(values, visible, self.hash_function)
        self._write(batch, "result", hashes.view(np.uint8))
        self._store(self.hashes, batch, hashes)
        self._store(self.values, batch, values)
        self.cpu_transfer_bytes += hashes.nbytes
