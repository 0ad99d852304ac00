"""Per-table runtime bundle: layout + storage + MVCC + snapshots.

A :class:`TableRuntime` is the unit both engines operate on. OLTP reads
and writes rows at the ``(row_id, delta)`` versions MVCC names; OLAP
scans regions under the current snapshot. The bundle also exposes the
row-count bookkeeping operators need (:meth:`TableRuntime.region_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index as as_int
from operator import itemgetter
from typing import Callable, Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.snapshot import SnapshotManager
from repro.core.storage import TableStorage
from repro.errors import MemoryError_, TransactionError
from repro.format.layout import UnifiedLayout
from repro.format.schema import TableSchema, Value
from repro.mvcc.manager import DELETE, INSERT, UPDATE, MVCCManager
from repro.mvcc.metadata import DATA_SLOT, Region
from repro.olap.operators import RegionRows
from repro.oltp.index import HashIndex

__all__ = ["TableRuntime"]


def _packer(widths: Sequence[int], shifts: Sequence[int]) -> Callable[[tuple], Optional[int]]:
    """A key tuple of columns ``widths`` bytes wide as one int, each value
    shifted left by its ``shifts`` entry; None, which no index holds, for a
    tuple of another arity or a value that is not an integer (NumPy's pack
    as Python's) in its column's ``[0, 2^(8·width))``, so such a key misses
    and never aliases another. Two and three columns (every composite
    CH-benCHmark key) get a packer of their own: the loop costs twice as much."""
    limits = [1 << 8 * w for w in widths]
    if len(widths) == 2:
        (la, lb), (sa, _) = limits, shifts

        def pack(key):
            try:
                a, b = key
                a, b = as_int(a), as_int(b)
            except (TypeError, ValueError):
                return None
            return a << sa | b if 0 <= a < la and 0 <= b < lb else None

    elif len(widths) == 3:
        (la, lb, lc), (sa, sb, _) = limits, shifts

        def pack(key):
            try:
                a, b, c = key
                a, b, c = as_int(a), as_int(b), as_int(c)
            except (TypeError, ValueError):
                return None
            return a << sa | b << sb | c if 0 <= a < la and 0 <= b < lb and 0 <= c < lc else None

    else:

        def pack(key):
            try:
                values = [as_int(v) for v in key]
            except TypeError:
                return None
            if len(values) == len(limits) and all(0 <= v < n for v, n in zip(values, limits)):
                return sum(v << s for v, s in zip(values, shifts))
            return None

    return pack


@dataclass
class TableRuntime:
    """Everything one table needs at runtime.

    The table owns its ``index``: load, insert, delete and their undo
    all derive a row's key with :meth:`key` from ``key_columns`` (several
    pack into one int, first column highest, 64 bits at most). A
    :class:`TransactionError` of an MVCC write or rollback surfaces
    naming the table and the ts.
    """

    name: str
    schema: TableSchema
    layout: UnifiedLayout
    storage: TableStorage
    mvcc: MVCCManager
    snapshots: SnapshotManager
    #: The table's unique hash index (None: not indexed) and the columns
    #: its keys are made of — the one place a row's key comes from.
    index: Optional[HashIndex] = None
    key_columns: Tuple[str, ...] = ()
    #: The change shapes (``tuple(changes)``) :meth:`update_row` passed.
    _update_shapes: set = field(default_factory=set, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Several key columns: each one's shift in a packed key, a getter of
        # their values and the packer, which the index uses on a probed tuple.
        if len(self.key_columns) > 1:
            widths = [self.schema.column(c).width for c in self.key_columns]
            self._shifts = tuple(8 * sum(widths[i + 1 :]) for i in range(len(widths)))
            self._key_values = itemgetter(*self.key_columns)
            self._pack = _packer(widths, self._shifts)
            if self.index is not None:
                self.index.pack = self._pack

    @property
    def num_rows(self) -> int:
        """Live logical rows (including inserts)."""
        return self.mvcc.num_rows

    def region_rows(self) -> RegionRows:
        """Row extents OLAP scans must cover."""
        return RegionRows(
            data_rows=self.mvcc.num_rows,
            delta_rows=self.mvcc.delta.high_water_rows,
        )

    # ------------------------------------------------------------------
    # Row access through MVCC
    # ------------------------------------------------------------------
    def read_row(
        self, row_id: int, ts: int, columns: Optional[Sequence[str]] = None
    ) -> Dict[str, Value]:
        """Read the version of ``row_id`` visible at ``ts``.

        With ``columns``, only those columns are read and decoded (the
        storage layer's partial-read fast path).
        """
        return self.storage.read_row(row_id, self.mvcc.read(row_id, ts)[0], columns)

    def update_row(self, row_id: int, ts: int, changes: Dict[str, Value]) -> int:
        """Install a new version of ``row_id`` with ``changes`` applied;
        returns the row's number of versions before the install.

        One :meth:`TableStorage.write_columns` install: the newest
        version's raw bytes move to the new delta row (same rotation by
        construction) and only the changed columns' byte runs are
        rewritten — bit-identical device bytes to a decode-merge-reencode
        of the whole row (the tests' oracle). A same-timestamp overwrite
        (``src == dst``) copies nothing. Unknown columns and index key
        columns (immutable, see :meth:`stored_key`) raise before the MVCC
        install (checked once per shape that passes); encode errors after
        it, but before any byte is stored.
        """
        shape = tuple(changes)
        if shape not in self._update_shapes:
            unknown = [c for c in changes if not self.schema.has_column(c)]
            if unknown:
                raise TransactionError(f"table {self.name!r} has no columns {unknown}")
            keys = [c for c in changes if c in self.key_columns]
            if keys:
                raise TransactionError(
                    f"table {self.name!r}: cannot update index key column(s) {keys}"
                )
            self._update_shapes.add(shape)
        src, dst, chain_len = self._mvcc(self.mvcc.update, row_id, ts)
        self.storage.write_columns(row_id, src, dst, changes)
        return chain_len

    def insert_row(self, ts: int, values: Dict[str, Value]) -> int:
        """Append a new row into its data slot and index it under its key;
        returns its row id."""
        row_id = self._mvcc(self.mvcc.insert, ts)
        self.storage.write_row(row_id, DATA_SLOT, values)
        if self.index is not None:
            self.index.insert(self.key(values), row_id)
        return row_id

    def delete_row(self, row_id: int, ts: int) -> int:
        """Tombstone ``row_id`` and drop its index entry; returns the
        row's number of versions."""
        chain_len = self._mvcc(self.mvcc.delete, row_id, ts)
        if self.index is not None:
            self.index.remove(self.stored_key(row_id))
        return chain_len

    def rollback(self, ts: int) -> None:
        """Pop the journal entries stamped ``ts`` (an aborting
        transaction's writes) and undo their index changes, newest first.

        An undone insert drops its key only if the key maps to this row:
        a failed insert has a journal entry, but its key may be another
        row's. An undone delete puts its key back only if it is absent.
        """
        index = self.index
        for kind, row_id in self._mvcc(self.mvcc.rollback, ts):
            if index is None or kind == UPDATE:
                continue
            key = self.stored_key(row_id)
            owner = index.probe(key)
            if kind == INSERT and owner == row_id:
                index.remove(key)
            elif kind == DELETE and owner is None:
                index.insert(key, row_id)

    def _mvcc(self, write: Callable, *args):
        """``write(*args)``, an MVCC write or rollback with its ts last."""
        try:
            return write(*args)
        except TransactionError as exc:
            raise type(exc)(f"table {self.name!r}: {exc} (ts {args[-1]})") from None

    # ------------------------------------------------------------------
    # The index
    # ------------------------------------------------------------------
    def key(self, values: Mapping[str, Value]) -> Hashable:
        """A row's index key: its one key column's value, or several
        columns' values packed into one int."""
        columns = self.key_columns
        if len(columns) == 1:
            return values[columns[0]]
        return self._pack(self._key_values(values))

    def keys(self, columns: Mapping[str, np.ndarray]) -> list:
        """:meth:`key` of every row of a block of column arrays, in range:
        several columns packed with ``uint64`` operations."""
        names = self.key_columns
        packed = columns[names[-1]]
        if len(names) > 1:
            packed = packed.astype(np.uint64)
            for name, shift in zip(names[:-1], self._shifts):
                packed |= columns[name].astype(np.uint64) << np.uint64(shift)
        return packed.tolist()

    def stored_key(self, row_id: int) -> Hashable:
        """``row_id``'s key, read on the host (uncharged) from its data
        slot. Key columns are immutable, so every version holds it."""
        return self.key(self.storage.read_row(row_id, DATA_SLOT, self.key_columns))

    # ------------------------------------------------------------------
    # Bulk load
    # ------------------------------------------------------------------
    def load_columns(self, blocks: Iterable[Dict[str, np.ndarray]]) -> int:
        """Bulk-load initial rows given as blocks of column arrays into
        the data region, then index them in one :meth:`HashIndex.insert_many`.

        Each block is one :meth:`TableStorage.write_column_rows`, stored
        as it arrives (a generator is never materialized); only its keys
        are kept. Rows must already be accounted in the MVCC manager's
        ``initial_rows``; a block that would pass that count raises
        before it is stored.
        """
        count = 0
        keys: list = []
        for columns in blocks:
            n = len(next(iter(columns.values())))
            stop = count + n
            self._check_sized(stop)
            self.storage.write_column_rows(Region.DATA, count, columns, n)
            if self.index is not None:
                keys += self.keys(columns)
            count = stop
        if self.index is not None:
            self.index.insert_many(keys, range(count))
        return count

    def _check_sized(self, rows: int) -> None:
        sized = self.mvcc.num_rows
        if rows > sized:
            raise MemoryError_(
                f"table {self.name!r} data region: row {sized} out of range "
                f"[0, {sized}) — the table was sized for {sized} initial rows"
            )
