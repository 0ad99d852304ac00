"""The MVCC manager: one version journal per table (§2.3, §5.1).

One :class:`MVCCManager` serves one table. Every committed write since
the last compaction is one entry of an append-only columnar **journal**,
in commit order:

* ``write_ts`` — the writing transaction's timestamp (non-decreasing);
* ``kind`` — :data:`UPDATE`, :data:`INSERT` or :data:`DELETE`;
* ``row_id`` — the logical row;
* ``delta`` — the delta-region row holding an update's new version
  (−1: the row's own data slot);
* ``prev`` — the journal position of the version an update supersedes or
  a delete removes (−1: the data-slot version).

Per row the manager keeps the packed ``head`` (journal position of the
newest version, −1 for the data slot), the data-slot version's
``base_ts`` (0, the insert ts, or the head ts at the last compaction),
a pending tombstone ts, the dead flag of a deletion compaction folded,
and the chain length, sized to the rows that exist.

A read is a pure function of this state: it records nothing. One
transaction runs at a time with a single writer, so no reader's
timestamp could decide a conflict (DESIGN.md §5 states the isolation).

Everything else is a view of the journal: a version chain is a ``prev``
walk from the head, :meth:`MVCCManager.log_between` is a bisect slice of
the columns that snapshotting (§5.2), IVM and the WAL's redo records
consume as arrays, :meth:`MVCCManager.rollback` pops an aborted
transaction's tail, and :meth:`MVCCManager.compact` (defragmentation)
folds every head into ``base_ts`` and clears the journal.

Byte movement is **not** done here. The manager names a version the way
its journal does, as ``(row_id, delta)`` with −1 for the data slot; the
storage engine binds that pair to device addresses.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import TransactionError
from repro.mvcc.regions import DataRegion, DeltaAllocator

__all__ = ["UPDATE", "INSERT", "DELETE", "KINDS", "LogWindow", "MVCCManager"]

#: Journal entry kinds (the ``kind`` column) and their names.
UPDATE, INSERT, DELETE = 0, 1, 2
KINDS = ("update", "insert", "delete")

#: The journal's column attributes, one int64 array each.
_COLUMNS = ("_write_ts", "_kind", "_row_id", "_delta", "_prev")

#: The per-row arrays: attribute, dtype and the value of an unwritten row.
#: They hold the rows that exist, grown geometrically up to the capacity.
_ROW_ARRAYS = (
    ("_head", np.int32, -1),
    ("_base_ts", np.int64, 0),
    ("_chain_len", np.int32, 1),
    ("_tomb_ts", np.int64, -1),
    ("_dead", bool, False),
)

#: Journal entries one table may hold: a head (a journal position) and a
#: chain length (one more than the row's updates) must both fit int32.
_JOURNAL_LIMIT = 2**31 - 2


class LogWindow(NamedTuple):
    """A commit-ordered run of journal entries, one array per column.

    The arrays are views of the journal: read them before the next write.
    """

    write_ts: np.ndarray
    kind: np.ndarray
    row_id: np.ndarray
    #: The entry's new version: its delta row, −1 for the data slot.
    delta: np.ndarray
    #: The version an update supersedes or a delete removes (−1: data slot).
    old_delta: np.ndarray

    @property
    def records(self) -> int:
        """Number of entries in the window."""
        return len(self.write_ts)

    def changes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The window as weighted version changes (the Z-set encoding).

        Per entry, in commit order: the superseded or deleted version at
        weight −1, then the new version at +1 — an update yields both, an
        insert only the +1, a delete only the −1. Returns ``(row ids,
        delta rows, weights)``; a delta row of −1 is the row's data slot.
        """
        keep = np.stack([self.kind != INSERT, self.kind != DELETE], axis=1).ravel()
        rows = np.repeat(self.row_id, 2)[keep]
        deltas = np.stack([self.old_delta, self.delta], axis=1).ravel()[keep]
        weights = np.tile(np.array([-1, 1], dtype=np.int64), self.records)[keep]
        return rows, deltas, weights


class MVCCManager:
    """Multi-version concurrency control for one table."""

    def __init__(
        self,
        initial_rows: int,
        capacity_rows: int,
        block_rows: int,
        num_devices: int,
        delta_capacity_blocks: int,
    ) -> None:
        if initial_rows > capacity_rows:
            raise TransactionError("initial_rows exceeds capacity_rows")
        self.data = DataRegion(capacity_rows, block_rows, num_devices)
        self.delta = DeltaAllocator(block_rows, num_devices, delta_capacity_blocks)
        self.num_rows = initial_rows
        self._size = 0
        for name in _COLUMNS:
            setattr(self, name, np.zeros(64, dtype=np.int64))
        self._hold_rows(min(max(initial_rows, block_rows), capacity_rows))

    def _hold_rows(self, size: int) -> None:
        """Grow the per-row arrays to ``size`` rows; zero fills stay zero pages."""
        for name, dtype, fill in _ROW_ARRAYS:
            array = np.full(size, fill, dtype=dtype) if fill else np.zeros(size, dtype=dtype)
            held = getattr(self, name, array[:0])
            array[: len(held)] = held
            setattr(self, name, array)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, row_id: int, ts: int) -> Tuple[int, int]:
        """Locate the version of ``row_id`` visible at ``ts``.

        Returns ``(delta, chain length)``: the version's delta row (−1:
        the row's data slot) and the row's number of versions, as ``int``s.
        """
        if row_id < 0 or row_id >= self.num_rows:
            raise TransactionError(f"row {row_id} out of range [0, {self.num_rows})")
        if self._dead.item(row_id):
            raise TransactionError(f"row {row_id} deleted (folded by defragmentation)")
        tomb = self._tomb_ts.item(row_id)
        if 0 <= tomb <= ts:
            raise TransactionError(f"row {row_id} deleted at ts {tomb}")
        pos = self._version_at(row_id, ts)
        if pos == -2:
            raise TransactionError(f"row {row_id} not visible at ts {ts}")
        delta = self._delta.item(pos) if pos >= 0 else -1
        return delta, self._chain_len.item(row_id)

    def _version_at(self, row_id: int, ts: int) -> int:
        """Journal position of the newest version of ``row_id`` written at
        or before ``ts``: −1 for the data slot, −2 if even that is newer."""
        pos = self._head.item(row_id)
        while pos >= 0 and self._write_ts.item(pos) > ts:
            pos = self._prev.item(pos)
        if pos < 0 and self._base_ts.item(row_id) > ts:
            return -2
        return pos

    def read_many(self, row_ids, ts: int) -> List[Tuple[int, int]]:
        """:meth:`read` of a batch of rows, in order."""
        return [self.read(int(row_id), ts) for row_id in row_ids]

    def chain_length(self, row_id: int) -> int:
        """Number of versions of ``row_id`` (1 if never updated)."""
        self._check_row(row_id)
        return int(self._chain_len[row_id])

    def alive_at(self, ts: int) -> np.ndarray:
        """Liveness of rows ``[0, num_rows)`` at ``ts``: neither folded
        dead by a compaction nor tombstoned at or before ``ts``."""
        n = self.num_rows
        tomb = self._tomb_ts[:n]
        return ~self._dead[:n] & ~((tomb >= 0) & (tomb <= ts))

    def tombstoned_rows(self) -> List[int]:
        """Row ids deleted so far (all committed in the single-writer sim).

        Includes both pending tombstones and rows whose deletion a past
        defragmentation already folded into the snapshot bitmap.
        """
        return np.flatnonzero(self._dead | (self._tomb_ts >= 0)).tolist()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def update(self, row_id: int, ts: int) -> Tuple[int, int, int]:
        """Create a new version of ``row_id``.

        Returns ``(src, dst, chain length)``: the newest version's delta
        row before the install (−1: the data slot), the new version's
        delta row, and the row's number of versions before the install.
        The delta row is allocated with the same rotation as the row's
        data block so defragmentation can copy it back device-locally.
        A repeated update at the *same* timestamp (the same transaction
        touching one row twice, e.g. a Delivery batch crediting one
        customer for two orders) overwrites that transaction's version in
        place: no new allocation, no new journal entry, and ``src ==
        dst``. All validation happens before the delta allocation, so a
        failed update never leaks a delta row.
        """
        self._check_row(row_id)
        if self._dead.item(row_id):
            raise TransactionError(f"row {row_id} deleted (folded by defragmentation)")
        head = self._head.item(row_id)
        chain_len = self._chain_len.item(row_id)
        src = self._delta.item(head) if head >= 0 else -1
        head_ts = self._write_ts.item(head) if head >= 0 else self._base_ts.item(row_id)
        if head_ts == ts:
            return src, src, chain_len
        if head_ts > ts:
            raise TransactionError(
                f"row {row_id}: update ts {ts} precedes head ts {head_ts}"
            )
        delta_index = self.delta.allocate(self.data.rotation_of(row_id))
        try:
            self._head[row_id] = self._append(ts, UPDATE, row_id, delta_index, head)
        except TransactionError:
            self.delta.release(delta_index)
            raise
        self._chain_len[row_id] = chain_len + 1
        return src, delta_index, chain_len

    def insert(self, ts: int) -> int:
        """Append a new row at the data-region cursor; returns its id
        (its version is the row's data slot)."""
        if self.num_rows >= self.data.num_rows:
            raise TransactionError(
                f"table full: capacity {self.data.num_rows} rows reached"
            )
        row_id = self.num_rows
        if row_id == len(self._head):
            self._hold_rows(min(2 * row_id, self.data.num_rows))
        self._append(ts, INSERT, row_id, -1, -1)
        self.num_rows += 1
        self._base_ts[row_id] = ts
        return row_id

    def delete(self, row_id: int, ts: int) -> int:
        """Tombstone a row as of ``ts``; returns its number of versions."""
        self._check_row(row_id)
        if self._tomb_ts[row_id] >= 0 or self._dead[row_id]:
            raise TransactionError(f"row {row_id} already deleted")
        self._append(ts, DELETE, row_id, -1, self._head[row_id])
        self._tomb_ts[row_id] = ts
        return int(self._chain_len[row_id])

    def _append(self, ts: int, kind: int, row_id: int, delta: int, prev: int) -> int:
        pos = self._size
        if pos >= _JOURNAL_LIMIT:
            raise TransactionError(f"journal full: {_JOURNAL_LIMIT} entries")
        if pos == len(self._write_ts):
            for name in _COLUMNS:
                column = getattr(self, name)
                setattr(self, name, np.concatenate([column, np.zeros_like(column)]))
        self._write_ts[pos] = ts
        self._kind[pos] = kind
        self._row_id[pos] = row_id
        self._delta[pos] = delta
        self._prev[pos] = prev
        self._size = pos + 1
        return pos

    def rollback(self, ts: int) -> List[Tuple[int, int]]:
        """Pop the journal entries stamped ``ts`` off the tail (abort path);
        returns their ``(kind, row_id)`` pairs, newest first.

        The aborting transaction is the only writer in flight, so its
        entries are the tail: each is undone newest first (an update's
        delta row is released). A newer entry above them means that
        assumption broke; it raises before anything is popped.
        """
        undone = []
        pos = self._size
        if pos and self._write_ts[pos - 1] > ts:
            raise TransactionError(
                f"rollback of ts {ts}: the journal tail holds newer ts "
                f"{self._write_ts[pos - 1]}"
            )
        while pos and self._write_ts[pos - 1] == ts:
            pos -= 1
            row_id = int(self._row_id[pos])
            kind = int(self._kind[pos])
            undone.append((kind, row_id))
            if kind == UPDATE:
                self._head[row_id] = self._prev[pos]
                self._chain_len[row_id] -= 1
                self.delta.release(int(self._delta[pos]))
            elif kind == INSERT:
                self.num_rows -= 1
                self._base_ts[row_id] = 0
            else:
                self._tomb_ts[row_id] = -1
            self._size = pos
        return undone

    # ------------------------------------------------------------------
    # Snapshot / defragmentation support
    # ------------------------------------------------------------------
    def log_between(self, after_ts: int, upto_ts: int) -> LogWindow:
        """Entries with ``after_ts < write_ts <= upto_ts`` (snapshotting).

        An inverted window (``after_ts > upto_ts``) raises — in the
        snapshot/IVM paths it is always a caller bug (a cursor that ran
        ahead of the target timestamp), and silently yielding nothing
        would let a stale view pass for a fresh one.
        """
        return self._window(*self._log_window(after_ts, upto_ts))

    def log_count_between(self, after_ts: int, upto_ts: int) -> int:
        """Number of entries :meth:`log_between` would return, in O(log n)."""
        lo, hi = self._log_window(after_ts, upto_ts)
        return hi - lo

    @property
    def journal(self) -> LogWindow:
        """Every entry since the last compaction (for audits)."""
        return self._window(0, self._size)

    def _log_window(self, after_ts: int, upto_ts: int) -> Tuple[int, int]:
        """Bisect the journal positions of ``(after_ts, upto_ts]``."""
        if after_ts > upto_ts:
            raise ValueError(
                f"inverted update-log window: after_ts {after_ts} > upto_ts {upto_ts}"
            )
        ts = self._write_ts[: self._size]
        lo, hi = np.searchsorted(ts, [after_ts, upto_ts], side="right")
        return int(lo), int(hi)

    def _window(self, lo: int, hi: int) -> LogWindow:
        prev = self._prev[lo:hi]
        return LogWindow(
            self._write_ts[lo:hi],
            self._kind[lo:hi],
            self._row_id[lo:hi],
            self._delta[lo:hi],
            np.where(prev >= 0, self._delta[prev], -1),
        )

    @property
    def row_bytes(self) -> int:
        """Host bytes of the per-row arrays."""
        return sum(getattr(self, name).nbytes for name, _, _ in _ROW_ARRAYS)

    @property
    def journal_bytes(self) -> int:
        """Host bytes of the journal's columns."""
        return sum(getattr(self, name).nbytes for name in _COLUMNS)

    def stale_version_count(self) -> int:
        """Superseded versions awaiting defragmentation: one per update."""
        return int(np.count_nonzero(self._kind[: self._size] == UPDATE))

    def updated_rows(self) -> np.ndarray:
        """Rows whose newest version lives in the delta region, ascending:
        read off the heads, ≥ 0 exactly when the journal holds an UPDATE of
        the row (rollback restores the previous head, compaction resets it
        to −1, inserts and deletes never set it)."""
        return np.flatnonzero(self._head[: self.num_rows] >= 0)

    def visible_refs_at(self, ts: int, delta_rows: int) -> Tuple[np.ndarray, np.ndarray]:
        """Visibility bitmaps at ``ts``, batched over the per-row heads.

        Returns boolean arrays over the data region (``capacity_rows``
        entries) and the delta region's first ``delta_rows`` entries.
        Rows whose head is newer than ``ts`` fall back to a ``prev`` walk
        — the only per-row work, and only for in-flight multi-version
        rows, through the same walk :meth:`read` takes.
        """
        n = self.num_rows
        data_bits = np.zeros(self.data.num_rows, dtype=bool)
        delta_bits = np.zeros(max(delta_rows, 1), dtype=bool)[:delta_rows]
        if n == 0:
            return data_bits, delta_bits
        alive = self.alive_at(ts)
        head = self._head[:n]
        chained = np.flatnonzero(head >= 0)
        head_ts = self._base_ts[:n].copy()
        head_ts[chained] = self._write_ts[head[chained]]
        rows = np.flatnonzero(alive & (head_ts <= ts))
        heads = head[rows]
        data_bits[rows[heads < 0]] = True
        delta_bits[self._delta[heads[heads >= 0]]] = True
        # Rare fallback: alive rows whose newest version post-dates ts.
        for row in np.flatnonzero(alive & (head_ts > ts)).tolist():
            pos = self._version_at(row, ts)
            if pos >= 0:
                delta_bits[self._delta[pos]] = True
            elif pos == -1:
                data_bits[row] = True
        return data_bits, delta_bits

    def compact(self, updated: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Defragmentation bookkeeping: fold newest versions into the data
        region.

        ``updated`` is :meth:`updated_rows` if the caller took it since the
        last write. Returns the ``(row ids, delta rows)`` the storage layer must copy
        back (delta → origin data row), in row order. Tombstoned rows are
        *not* moved — copying a dead row's newest delta version back would
        be a wasted Eq. 1/2 transfer since no future read can observe it —
        and their tombstones fold into the permanent dead flag, since the
        journal entries that carried them are cleared here. Every head's
        write ts becomes its row's ``base_ts``, all delta rows are
        released, and the journal is cleared.
        """
        n = self._size
        updated = self.updated_rows() if updated is None else updated
        deleted = self._row_id[:n][self._kind[:n] == DELETE]
        heads = self._head[updated]
        live = self._tomb_ts[updated] < 0
        moves = updated[live], self._delta[heads[live]]
        self._base_ts[updated] = self._write_ts[heads]
        self._head[updated] = -1
        self._chain_len[updated] = 1
        self._dead[deleted] = True
        self._tomb_ts[deleted] = -1
        self.delta.release_all()
        self._size = 0
        return moves

    def _check_row(self, row_id: int) -> None:
        if row_id < 0 or row_id >= self.num_rows:
            raise TransactionError(f"row {row_id} out of range [0, {self.num_rows})")
