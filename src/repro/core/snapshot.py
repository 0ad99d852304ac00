"""Bitmap snapshotting (§5.2, Fig. 6c).

Before an analytical query, the CPU replays the MVCC version journal
committed since the last snapshot into two per-bank visibility bitmaps (data region
and delta region), one bit per row, with a copy on every device so each
PIM unit can consult visibility locally. Bit ``1`` means the row is
visible in the snapshot.

The snapshot is **incremental**: only records in ``(last_ts, query_ts]``
are applied (large-scale databases update rather than rebuild, §2.3), and
transactions issued after the query's timestamp are skipped — exactly the
T1–T5 walk-through of Fig. 6c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.storage import TableStorage
from repro.errors import SnapshotError
from repro.mvcc.manager import MVCCManager
from repro.mvcc.metadata import METADATA_BYTES, Region
from repro.pim.pim_unit import distinct
from repro.units import ceil_div

__all__ = ["SnapshotCost", "SnapshotManager"]


@dataclass(frozen=True)
class SnapshotCost:
    """Work done by one incremental snapshot update.

    ``metadata_bytes`` is CPU traffic reading version metadata;
    ``bitmap_bytes`` is CPU traffic updating the (ADE-aligned, hence
    simultaneously written) bitmap copies.
    """

    records: int
    bits_flipped: int
    metadata_bytes: int
    bitmap_bytes: int

    @property
    def total_cpu_bytes(self) -> int:
        """All CPU memory traffic of the update."""
        return self.metadata_bytes + self.bitmap_bytes


class SnapshotManager:
    """Maintains one table's snapshot bitmaps against its version journal."""

    def __init__(self, storage: TableStorage, mvcc: MVCCManager) -> None:
        self.storage = storage
        self.mvcc = mvcc
        self.last_snapshot_ts = 0
        # Both bitmaps are views of one array: a data row's bit sits at its
        # row index, a delta row's after every data row.
        self._bits = np.zeros(storage.capacity_rows + storage.delta_capacity_rows, dtype=bool)
        self._data_bits = self._bits[: storage.capacity_rows]
        self._delta_bits = self._bits[storage.capacity_rows :]
        self._data_bits[: mvcc.num_rows] = True
        self._store_prefixes()

    # ------------------------------------------------------------------
    # Incremental update
    # ------------------------------------------------------------------
    def update_to(self, ts: int) -> SnapshotCost:
        """Apply committed records up to ``ts``; store the changed bitmap bytes.

        The journal window arrives as version changes in commit order
        (an update clears the version it superseded and sets the new one,
        an insert sets, a delete clears). A bit ends at its last change,
        and a change is a flip — charged to the cache line of packed
        bitmap it lands in — only if it differs from the bit's value
        just before it.
        """
        if ts < self.last_snapshot_ts:
            raise SnapshotError(
                f"snapshot timestamp {ts} precedes last snapshot "
                f"{self.last_snapshot_ts}"
            )
        if ts == self.last_snapshot_ts:
            # Already at this horizon — repeated calls are idempotent
            # no-ops rather than a log walk plus a fresh cost object.
            return SnapshotCost(records=0, bits_flipped=0, metadata_bytes=0, bitmap_bytes=0)
        window = self.mvcc.log_between(self.last_snapshot_ts, ts)
        rows, deltas, weights = window.changes()
        in_delta = deltas >= 0
        index = np.where(in_delta, deltas, rows)
        bad = np.flatnonzero(index >= np.where(in_delta, len(self._delta_bits), len(self._data_bits)))
        if bad.size:
            region = Region.DELTA if in_delta[bad[0]] else Region.DATA
            raise SnapshotError(f"{region} bitmap row {index[bad[0]]} out of range")
        # Sort by bit position, commit order kept within each position.
        pos = index + in_delta * len(self._data_bits)
        order = np.argsort(pos, kind="stable")
        pos, index, in_delta = pos[order], index[order], in_delta[order]
        value = weights[order] > 0
        first = np.ones(pos.size, dtype=bool)
        first[1:] = pos[1:] != pos[:-1]
        before = np.roll(value, 1)
        before[first] = self._bits[pos[first]]
        flipped = value != before
        last = np.roll(first, -1)
        self._bits[pos[last]] = value[last]
        self.last_snapshot_ts = ts
        for region, mask in ((Region.DATA, last & ~in_delta), (Region.DELTA, last & in_delta)):
            rows = index[mask]
            if rows.size:
                self._store(region, rows[0], rows[-1] + 1)
        # Group by the unit the cost model charges: one cache line of
        # packed bitmap covers 8 * cache_line_bytes rows. (Grouping by
        # the per-device interleave granularity instead would overcount
        # touched lines whenever granularity != cache_line_bytes.)
        line = self.storage.rank.geometry.cache_line_bytes
        granules = index[flipped] // (8 * line) * 2 + in_delta[flipped]
        return SnapshotCost(
            records=window.records,
            bits_flipped=int(np.count_nonzero(flipped)),
            metadata_bytes=window.records * METADATA_BYTES,
            bitmap_bytes=distinct(granules).size * line,
        )

    def _store(self, region: str, lo: int, hi: int) -> None:
        """Store the whole packed bytes covering bits ``[lo, hi)`` of one
        bitmap: one broadcast, as the device copies share a local address
        (ADE-aligned, Fig. 6a)."""
        bits = self._data_bits if region == Region.DATA else self._delta_bits
        first = lo // 8
        packed = np.packbits(bits[first * 8 : ceil_div(hi, 8) * 8], bitorder="little")
        self.storage.write_bitmap(region, packed, first)

    def _store_prefixes(self) -> None:
        """Store the bits a snapshot can have set (see :meth:`rebuild_after_defrag`)."""
        self._store(Region.DATA, 0, self.mvcc.num_rows)
        self._store(Region.DELTA, 0, self.mvcc.delta.high_water_rows)

    # ------------------------------------------------------------------
    # Introspection / defragmentation hook
    # ------------------------------------------------------------------
    def visible_data_rows(self) -> np.ndarray:
        """Boolean visibility of data-region rows."""
        return self._data_bits.copy()

    def visible_delta_rows(self) -> np.ndarray:
        """Boolean visibility of delta-region rows."""
        return self._delta_bits.copy()

    @property
    def bits_bytes(self) -> int:
        """Host bytes of both bitmaps (mapped; untouched pages stay zero)."""
        return self._bits.nbytes

    def visible_count(self) -> int:
        """Total visible rows across both regions."""
        return int(self._data_bits.sum() + self._delta_bits.sum())

    def rebuild_after_defrag(self, ts: int) -> None:
        """Reset bitmaps after defragmentation folded the delta region.

        Every row alive at ``ts`` becomes visible in the data region (the
        compaction just folded the tombstones into dead rows) and the
        delta region empties. ``ts`` becomes the new snapshot horizon
        (OLTP is paused during defragmentation, §5.3, so nothing is
        in-flight). Only bits a snapshot can have set are cleared (rows below
        ``num_rows`` and the delta high-water mark), and only their bytes
        are stored: the tails stay zero pages.
        """
        self._delta_bits[: self.mvcc.delta.high_water_rows] = False
        self._data_bits[: self.mvcc.num_rows] = self.mvcc.alive_at(ts)
        self.last_snapshot_ts = ts
        self._store_prefixes()
