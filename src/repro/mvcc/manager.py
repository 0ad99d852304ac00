"""The MVCC manager: version chains, the update log, and visibility (§5.1).

One :class:`MVCCManager` serves one table. It tracks version chains for
updated rows (rows never updated implicitly have their original version in
the data region), appends inserts at the data-region cursor, and keeps an
ordered *update log* that snapshotting (§5.2) replays incrementally.

Reads resolve through a **packed visibility index** — per-table NumPy
arrays of (head begin-ts, head location, chain length, tombstone ts)
maintained incrementally on every write — so the hot path answers
"which version is visible at ts?" with O(1) array lookups and only
falls back to walking a :class:`~repro.mvcc.metadata.VersionChain` for
the rare read of a superseded version. The chains and tombstone dicts
are maintained on every write too, which is what lets the tests hold
each read path against a plain chain walk.

Byte movement is **not** done here — the manager deals in
:class:`~repro.mvcc.metadata.RowRef` locations; the storage engine binds
refs to device addresses.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.errors import TransactionError
from repro.mvcc.metadata import Region, RowRef, VersionChain, VersionEntry
from repro.mvcc.regions import DataRegion, DeltaAllocator

__all__ = ["UpdateRecord", "MVCCManager"]


@dataclass(frozen=True)
class UpdateRecord:
    """One committed write, as replayed by snapshotting.

    ``kind`` is ``"update"``, ``"insert"`` or ``"delete"``. For updates,
    ``new_ref`` is the freshly allocated delta row and ``prev_ref`` the
    version it supersedes; for inserts ``new_ref`` is the appended data
    row; for deletes ``new_ref`` is None.
    """

    write_ts: int
    kind: str
    row_id: int
    new_ref: Optional[RowRef]
    prev_ref: Optional[RowRef]


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
        self._chains: Dict[int, VersionChain] = {}
        self._tombstones: Dict[int, int] = {}
        #: Rows whose deletion defragmentation has folded into the
        #: snapshot bitmap: their tombstone record and log entries are
        #: gone, but the rows stay dead forever (ids are never reused).
        self._dead_rows: Set[int] = set()
        self._log: List[UpdateRecord] = []
        #: Parallel write_ts list of ``_log`` (non-decreasing — commit
        #: order), so ``log_since``/``log_between`` bisect instead of
        #: re-scanning the whole log on every incremental snapshot.
        self._log_ts: List[int] = []
        # Packed visibility index, one entry per data-region row:
        # head write_ts (0 = origin), head delta index (-1 = head lives
        # in the data region), chain length (0 = never versioned),
        # tombstone ts (-1 = live), and the permanent dead flag.
        capacity = max(capacity_rows, 1)
        self._head_ts = np.zeros(capacity, dtype=np.int64)
        self._head_delta = np.full(capacity, -1, dtype=np.int64)
        self._chain_len = np.zeros(capacity, dtype=np.int32)
        self._tomb_ts = np.full(capacity, -1, dtype=np.int64)
        self._dead = np.zeros(capacity, dtype=bool)
        #: Superseded versions outstanding — incremented per installed
        #: update, decremented on undo, zeroed by compaction. Always
        #: equals ``sum(chain.length() - 1)`` (invariant-checked).
        self._stale_versions = 0
        #: Rows whose newest version lives in the delta region, in the
        #: order their head first moved there (an ordered set).
        self._delta_heads: Dict[int, None] = {}

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, row_id: int, ts: int) -> RowRef:
        """Locate the version of ``row_id`` visible at ``ts``."""
        self._check_row(row_id)
        if row_id in self._dead_rows:
            raise TransactionError(f"row {row_id} deleted (folded by defragmentation)")
        tomb = self._tombstones.get(row_id)
        if tomb is not None and tomb <= ts:
            raise TransactionError(f"row {row_id} deleted at ts {tomb}")
        chain = self._chains.get(row_id)
        if chain is None:
            return RowRef(Region.DATA, row_id)
        if self._head_ts[row_id] <= ts:
            # Common case: the newest version is visible — resolved by
            # the packed index without walking the chain.
            head = chain.head
            head.observe_read(ts)
            return head.location
        entry = chain.visible_at(ts)
        if entry is None:
            raise TransactionError(f"row {row_id} not visible at ts {ts}")
        entry.observe_read(ts)
        return entry.location

    def fast_row_mask(self, row_ids) -> np.ndarray:
        """Classify a batch: which rows resolve without any per-row work.

        A ``True`` entry marks an in-range, never-versioned, live row —
        its visible version at *any* timestamp is its data-region origin
        (``RowRef(DATA, row_id)``), with no tombstone check, no chain
        walk, and no read observation. One vectorized pass over the
        packed index answers this for the whole batch; callers send the
        ``False`` rows through :meth:`read` for the full treatment.
        Pure: no side effects, safe to call speculatively.
        """
        ids = np.asarray(row_ids, dtype=np.int64)
        if ids.size == 0:
            return np.zeros(0, dtype=bool)
        fast = (ids >= 0) & (ids < self.num_rows)
        sel = ids[fast]
        ok = (
            (self._chain_len[sel] == 0)
            & (self._tomb_ts[sel] < 0)
            & ~self._dead[sel]
        )
        fast[np.nonzero(fast)[0][~ok]] = False
        return fast

    def read_many(self, row_ids, ts: int) -> List[RowRef]:
        """Locate the versions of a batch of rows visible at ``ts``.

        Identical outcomes and side effects to calling :meth:`read` once
        per row in order: the packed index resolves never-versioned live
        rows in one array pass, and only chained / tombstoned / dead /
        out-of-range rows fall back to the per-row path — errors surface
        at the same row, with the same message, as the sequential loop.
        """
        fast = self.fast_row_mask(row_ids)
        return [
            RowRef(Region.DATA, int(row_id)) if fast[i] else self.read(int(row_id), ts)
            for i, row_id in enumerate(row_ids)
        ]

    def newest_ref(self, row_id: int) -> RowRef:
        """Location of the newest version (ignores visibility)."""
        self._check_row(row_id)
        chain = self._chains.get(row_id)
        if chain is None:
            return RowRef(Region.DATA, row_id)
        return chain.head.location

    def chain_length(self, row_id: int) -> int:
        """Number of versions of ``row_id`` (1 if never updated)."""
        self._check_row(row_id)
        if row_id not in self._chains:
            return 1
        # O(1) from the packed index instead of a chain walk.
        return int(self._chain_len[row_id])

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def update(self, row_id: int, ts: int) -> RowRef:
        """Create a new version of ``row_id``; returns its delta location.

        The delta row is allocated with the same rotation as the row's
        data block so defragmentation can copy it back device-locally.
        A repeated update at the *same* timestamp (the same transaction
        touching one row twice, e.g. a Delivery batch crediting one
        customer for two orders) overwrites that transaction's version in
        place: no new allocation, no new log record, one undo step.
        All validation happens before the delta allocation, so a failed
        update never leaks a delta row.
        """
        self._check_row(row_id)
        if row_id in self._dead_rows:
            raise TransactionError(f"row {row_id} deleted (folded by defragmentation)")
        chain = self._chains.get(row_id)
        if chain is not None:
            if chain.head.write_ts == ts:
                return chain.head.location
            if chain.head.write_ts > ts:
                raise TransactionError(
                    f"row {row_id}: update ts {ts} precedes head ts "
                    f"{chain.head.write_ts}"
                )
        rotation = self.data.rotation_of(row_id)
        delta_index = self.delta.allocate(rotation)
        new_ref = RowRef(Region.DELTA, delta_index)
        if chain is None:
            origin = VersionEntry(write_ts=0, location=RowRef(Region.DATA, row_id))
            chain = VersionChain(row_id, origin)
            self._chains[row_id] = chain
            self._chain_len[row_id] = 1
        prev_ref = chain.head.location
        chain.install(VersionEntry(write_ts=ts, location=new_ref))
        self._chain_len[row_id] += 1
        self._head_ts[row_id] = ts
        self._head_delta[row_id] = delta_index
        self._stale_versions += 1
        if row_id not in self._delta_heads:
            self._delta_heads[row_id] = None
        self._append_log(UpdateRecord(ts, "update", row_id, new_ref, prev_ref))
        return new_ref

    def insert(self, ts: int) -> Tuple[int, RowRef]:
        """Append a new row at the data-region cursor."""
        if self.num_rows >= self.data.num_rows:
            raise TransactionError(
                f"table full: capacity {self.data.num_rows} rows reached"
            )
        row_id = self.num_rows
        self.num_rows += 1
        ref = RowRef(Region.DATA, row_id)
        self._chains[row_id] = VersionChain(row_id, VersionEntry(ts, ref))
        self._chain_len[row_id] = 1
        self._head_ts[row_id] = ts
        self._head_delta[row_id] = -1
        self._append_log(UpdateRecord(ts, "insert", row_id, ref, None))
        return row_id, ref

    def delete(self, row_id: int, ts: int) -> None:
        """Tombstone a row as of ``ts``."""
        self._check_row(row_id)
        if row_id in self._tombstones or row_id in self._dead_rows:
            raise TransactionError(f"row {row_id} already deleted")
        self._tombstones[row_id] = ts
        self._tomb_ts[row_id] = ts
        self._append_log(UpdateRecord(ts, "delete", row_id, None, self.newest_ref(row_id)))

    # ------------------------------------------------------------------
    # Rollback (transaction aborts)
    # ------------------------------------------------------------------
    def undo_update(self, row_id: int) -> RowRef:
        """Remove the newest version of ``row_id`` (abort path).

        The popped delta row is released and the matching log record
        dropped; returns the removed version's location.
        """
        chain = self._chains.get(row_id)
        if chain is None or chain.head.prev is None:
            raise TransactionError(f"row {row_id} has no version to undo")
        removed = chain.head.location
        if removed.region != Region.DELTA:
            raise TransactionError(f"row {row_id}: newest version is not in the delta")
        # Validate the log tail before mutating anything (undo is atomic).
        self._pop_log("update", row_id)
        chain.head = chain.head.prev
        self.delta.release(removed.index)
        self._stale_versions -= 1
        self._chain_len[row_id] -= 1
        head = chain.head
        self._head_ts[row_id] = head.write_ts
        if head.location.region == Region.DELTA:
            self._head_delta[row_id] = head.location.index
        else:
            self._head_delta[row_id] = -1
            self._delta_heads.pop(row_id, None)
        return removed

    def undo_insert(self, row_id: int) -> None:
        """Remove a freshly appended row (abort path).

        Only the most recent insert can be undone — aborts unwind in
        reverse order.
        """
        if row_id != self.num_rows - 1:
            raise TransactionError(
                f"can only undo the most recent insert (row {self.num_rows - 1}), "
                f"got {row_id}"
            )
        self._pop_log("insert", row_id)
        del self._chains[row_id]
        self.num_rows -= 1
        self._chain_len[row_id] = 0
        self._head_ts[row_id] = 0
        self._head_delta[row_id] = -1

    def undo_delete(self, row_id: int) -> None:
        """Remove a tombstone (abort path)."""
        if row_id not in self._tombstones:
            raise TransactionError(f"row {row_id} is not deleted")
        self._pop_log("delete", row_id)
        del self._tombstones[row_id]
        self._tomb_ts[row_id] = -1

    def _append_log(self, record: UpdateRecord) -> None:
        self._log.append(record)
        self._log_ts.append(record.write_ts)

    def _pop_log(self, kind: str, row_id: int) -> None:
        if not self._log or self._log[-1].kind != kind or self._log[-1].row_id != row_id:
            raise TransactionError(
                f"log tail does not match undo of {kind} on row {row_id}"
            )
        self._log.pop()
        self._log_ts.pop()

    def tombstoned_rows(self) -> List[int]:
        """Row ids deleted so far (all committed in the single-writer sim).

        Includes both pending tombstones and rows whose deletion a past
        defragmentation already folded into the snapshot bitmap.
        """
        return sorted(set(self._tombstones) | self._dead_rows)

    def dead_rows(self) -> List[int]:
        """Row ids whose deletion defragmentation has already folded."""
        return sorted(self._dead_rows)

    # ------------------------------------------------------------------
    # Snapshot / defragmentation support
    # ------------------------------------------------------------------
    def log_since(self, ts: int) -> Iterator[UpdateRecord]:
        """Committed records with ``write_ts > ts``, in commit order.

        Timestamps are appended in commit order (non-decreasing,
        invariant-checked), so the start position bisects in O(log n)
        rather than re-scanning the whole log.
        """
        return iter(self._log[bisect.bisect_right(self._log_ts, ts) :])

    def log_between(self, after_ts: int, upto_ts: int) -> Iterator[UpdateRecord]:
        """Records with ``after_ts < write_ts <= upto_ts`` (snapshotting).

        An inverted window (``after_ts > upto_ts``) raises — in the
        snapshot/IVM paths it is always a caller bug (a cursor that ran
        ahead of the target timestamp), and silently yielding nothing
        would let a stale view pass for a fresh one.
        """
        lo, hi = self._log_window(after_ts, upto_ts)
        return iter(self._log[lo:hi])

    def log_count_between(self, after_ts: int, upto_ts: int) -> int:
        """Number of records :meth:`log_between` would yield, in O(log n).

        Cost estimation (e.g. the serve scheduler's apply-deltas vs
        full-rescan decision) needs the count without materializing or
        consuming the records.
        """
        lo, hi = self._log_window(after_ts, upto_ts)
        return hi - lo

    def _log_window(self, after_ts: int, upto_ts: int) -> Tuple[int, int]:
        """Bisect the log slice for ``(after_ts, upto_ts]`` windows."""
        if after_ts > upto_ts:
            raise ValueError(
                f"inverted update-log window: after_ts {after_ts} > upto_ts {upto_ts}"
            )
        lo = bisect.bisect_right(self._log_ts, after_ts)
        hi = bisect.bisect_right(self._log_ts, upto_ts, lo=lo)
        return lo, hi

    @property
    def log_length(self) -> int:
        """Number of committed write records retained."""
        return len(self._log)

    def updated_chains(self) -> List[VersionChain]:
        """Chains whose newest version lives in the delta region.

        O(updated rows) via the maintained delta-head set, in the order
        each row's head first moved to the delta region.
        """
        return [self._chains[row_id] for row_id in self._delta_heads]

    def stale_version_count(self) -> int:
        """Superseded versions awaiting defragmentation (O(1))."""
        return self._stale_versions

    def visible_refs_at(self, ts: int, delta_rows: int) -> Tuple[np.ndarray, np.ndarray]:
        """Visibility bitmaps at ``ts``, batched over the packed index.

        Returns boolean arrays over the data region (``capacity_rows``
        entries) and the delta region's first ``delta_rows`` entries.
        Rows whose head is newer than ``ts`` fall back to a chain walk —
        the only per-row work, and only for in-flight multi-version rows.
        Unlike :meth:`read`, this never observes reads (it describes a
        snapshot, it doesn't take part in concurrency control).
        """
        n = self.num_rows
        data_bits = np.zeros(self.data.num_rows, dtype=bool)
        delta_bits = np.zeros(max(delta_rows, 1), dtype=bool)[:delta_rows]
        if n == 0:
            return data_bits, delta_bits
        head_ts = self._head_ts[:n]
        head_delta = self._head_delta[:n]
        chain_len = self._chain_len[:n]
        tomb = self._tomb_ts[:n]
        alive = ~self._dead[:n] & ~((tomb >= 0) & (tomb <= ts))
        head_visible = alive & ((chain_len == 0) | (head_ts <= ts))
        rows = np.nonzero(head_visible)[0]
        deltas = head_delta[rows]
        data_bits[rows[deltas < 0]] = True
        delta_bits[deltas[deltas >= 0]] = True
        # Rare fallback: alive rows whose newest version post-dates ts.
        for row in np.nonzero(alive & (chain_len > 0) & (head_ts > ts))[0]:
            entry = self._chains[int(row)].visible_at(int(ts))
            if entry is None:
                continue
            if entry.location.region == Region.DATA:
                data_bits[entry.location.index] = True
            else:
                delta_bits[entry.location.index] = True
        return data_bits, delta_bits

    def compact(self) -> List[Tuple[int, RowRef]]:
        """Defragmentation bookkeeping: fold newest versions into the data
        region.

        Returns ``(row_id, delta_ref)`` pairs that the storage layer must
        copy back (delta → origin data row). Tombstoned rows are *not*
        moved — copying a dead row's newest delta version back would be a
        wasted Eq. 1/2 transfer since no future read can observe it.
        Their chains are dropped and the tombstones folded into the
        permanent dead-row set (the log entries that carried them are
        cleared here, so the deletions must survive elsewhere). Chains of
        live rows are truncated, all delta rows released, and the update
        log cleared up to now.
        """
        dead = self._dead_rows | set(self._tombstones)
        moves: List[Tuple[int, RowRef]] = []
        for chain in list(self._chains.values()):
            if chain.row_id in dead:
                del self._chains[chain.row_id]
                continue
            head_loc = chain.head.location
            if head_loc.region == Region.DELTA:
                moves.append((chain.row_id, head_loc))
                chain.head.location = RowRef(Region.DATA, chain.row_id)
            chain.truncate_to_head()
        self._dead_rows.update(self._tombstones)
        self._tombstones.clear()
        self.delta.release_all()
        self._log.clear()
        self._log_ts.clear()
        # Packed index: batch-fold the same transitions.
        self._stale_versions = 0
        self._delta_heads.clear()
        if dead:
            folded = np.fromiter(dead, dtype=np.int64, count=len(dead))
            self._dead[folded] = True
            self._tomb_ts[folded] = -1
            self._chain_len[folded] = 0
            self._head_ts[folded] = 0
            self._head_delta[folded] = -1
        if self._chains:
            live = np.fromiter(self._chains.keys(), dtype=np.int64, count=len(self._chains))
            self._chain_len[live] = 1
            self._head_delta[live] = -1
        return moves

    def _check_row(self, row_id: int) -> None:
        if row_id < 0 or row_id >= self.num_rows:
            raise TransactionError(f"row {row_id} out of range [0, {self.num_rows})")
