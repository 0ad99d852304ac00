"""Per-table runtime bundle: layout + storage + MVCC + snapshots.

A :class:`TableRuntime` is the unit both engines operate on. OLTP reads
and writes rows at the ``(row_id, delta)`` versions MVCC names; OLAP
scans regions under the current snapshot. The bundle also exposes the
row-count bookkeeping operators need (:meth:`TableRuntime.region_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, Hashable, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.snapshot import SnapshotManager
from repro.core.storage import TableStorage
from repro.errors import MemoryError_, TransactionError
from repro.format.layout import UnifiedLayout
from repro.format.schema import TableSchema, Value
from repro.mvcc.manager import MVCCManager
from repro.mvcc.metadata import DATA_SLOT, Region
from repro.olap.operators import RegionRows
from repro.oltp.index import HashIndex

__all__ = ["TableRuntime"]


@dataclass
class TableRuntime:
    """Everything one table needs at runtime.

    ``units`` are the PIM units of the rank holding this table (set by
    the engine; None means "use the OLAP engine's default rank"), and
    ``rank_index`` records which simulated rank that is.
    """

    name: str
    schema: TableSchema
    layout: UnifiedLayout
    storage: TableStorage
    mvcc: MVCCManager
    snapshots: SnapshotManager
    units: Optional[Dict] = None
    rank_index: int = 0

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

        Copies the newest version's raw bytes to the new delta row (same
        rotation by construction) and rewrites only the changed columns'
        byte runs — bit-identical device bytes to a decode-merge-reencode
        of the whole row (the tests' oracle), since padding is already
        zeroed and unchanged columns round-trip exactly. A same-timestamp
        overwrite (``src == dst``) copies nothing. Unknown columns raise
        before the MVCC install, encode errors after it.
        """
        unknown = [c for c in changes if not self.schema.has_column(c)]
        if unknown:
            raise TransactionError(f"table {self.name!r} has no columns {unknown}")
        src, dst, chain_len = self.mvcc.update(row_id, ts)
        if dst != src:
            self.storage.copy_row(row_id, src, dst)
        self.storage.write_columns(row_id, dst, changes)
        return chain_len

    def insert_row(self, ts: int, values: Dict[str, Value]) -> int:
        """Append a new row into its data slot; returns its row id."""
        row_id = self.mvcc.insert(ts)
        self.storage.write_row(row_id, DATA_SLOT, values)
        return row_id

    def load_rows(
        self,
        rows: Iterable[Dict[str, Value]],
        index: Optional[Tuple[HashIndex, Callable[[Dict[str, Value]], Hashable]]] = None,
    ) -> int:
        """Bulk-load initial rows given as dicts into the data region.

        Consumes ``rows`` one circulant block at a time (so a generator is
        never materialized), stores each block with
        :meth:`TableStorage.write_rows`, and feeds ``index`` — an
        ``(index, key_fn)`` pair — with ``key_fn(row) → row id``. Rows
        must already be accounted in the MVCC manager's ``initial_rows``;
        a block that would pass that count raises before it is stored.
        """
        rows = iter(rows)
        count = 0
        while chunk := list(islice(rows, self.storage.block_rows)):
            stop = count + len(chunk)
            self._check_sized(stop)
            self.storage.write_rows(Region.DATA, count, chunk)
            if index is not None:
                hash_index, key_fn = index
                hash_index.insert_many([key_fn(v) for v in chunk], range(count, stop))
            count = stop
        return count

    def load_columns(
        self,
        blocks: Iterable[Dict[str, np.ndarray]],
        index: Optional[Tuple[HashIndex, Sequence[str]]] = None,
    ) -> int:
        """:meth:`load_rows` for blocks of rows given as column arrays.

        Each block is one :meth:`TableStorage.write_column_rows`; ``index``
        is an ``(index, key columns)`` pair, a single key column indexing
        its plain values and several their tuples.
        """
        count = 0
        for columns in blocks:
            n = len(next(iter(columns.values())))
            stop = count + n
            self._check_sized(stop)
            self.storage.write_column_rows(Region.DATA, count, columns, n)
            if index is not None:
                hash_index, key_columns = index
                keys = [columns[c].tolist() for c in key_columns]
                hash_index.insert_many(
                    keys[0] if len(keys) == 1 else list(zip(*keys)), range(count, stop)
                )
            count = stop
        return count

    def _check_sized(self, rows: int) -> None:
        sized = self.mvcc.num_rows
        if rows > sized:
            raise MemoryError_(
                f"table {self.name!r} data region: row {sized} out of range "
                f"[0, {sized}) — the table was sized for {sized} initial rows"
            )
