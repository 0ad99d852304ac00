"""Per-table runtime bundle: layout + storage + MVCC + snapshots.

A :class:`TableRuntime` is the unit both engines operate on. OLTP reads
and writes rows at the ``(row_id, delta)`` versions MVCC names; OLAP
scans regions under the current snapshot. The bundle also exposes the
row-count bookkeeping operators need (:meth:`TableRuntime.region_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class TableRuntime:
    """Everything one table needs at runtime.

    ``units`` are the PIM units of the rank holding this table (set by
    the engine; None means "use the OLAP engine's default rank"), and
    ``rank_index`` records which simulated rank that is. The table owns
    its ``index``: load, insert, delete and their undo all derive a row's
    key with :meth:`key` from ``key_columns``. A :class:`TransactionError`
    of an MVCC write or rollback surfaces naming the table and the ts.
    """

    name: str
    schema: TableSchema
    layout: UnifiedLayout
    storage: TableStorage
    mvcc: MVCCManager
    snapshots: SnapshotManager
    units: Optional[Dict] = None
    rank_index: int = 0
    #: The table's unique hash index (None: not indexed) and the columns
    #: its keys are made of — the one place a row's key comes from.
    index: Optional[HashIndex] = None
    key_columns: Tuple[str, ...] = ()
    #: The change shapes (``tuple(changes)``) :meth:`update_row` passed.
    _update_shapes: set = field(default_factory=set, init=False, repr=False, compare=False)

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
        """A row's index key: its one key column's value, or the tuple of
        several columns' values."""
        columns = self.key_columns
        if len(columns) == 1:
            return values[columns[0]]
        return tuple(values[c] for c in columns)

    def keys(self, columns: Mapping[str, np.ndarray]) -> list:
        """:meth:`key` of every row of a block of column arrays."""
        keys = [columns[c].tolist() for c in self.key_columns]
        return keys[0] if len(keys) == 1 else list(zip(*keys))

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
