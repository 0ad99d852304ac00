"""Bitmap snapshotting (§5.2, Fig. 6c).

Before an analytical query, the CPU replays the MVCC update log committed
since the last snapshot into two per-bank visibility bitmaps (data region
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

    def merge(self, other: "SnapshotCost") -> "SnapshotCost":
        """Sum two costs."""
        return SnapshotCost(
            self.records + other.records,
            self.bits_flipped + other.bits_flipped,
            self.metadata_bytes + other.metadata_bytes,
            self.bitmap_bytes + other.bitmap_bytes,
        )


class SnapshotManager:
    """Maintains one table's snapshot bitmaps against its MVCC log."""

    def __init__(self, storage: TableStorage, mvcc: MVCCManager) -> None:
        self.storage = storage
        self.mvcc = mvcc
        self.last_snapshot_ts = 0
        self._data_bits = np.zeros(storage.capacity_rows, dtype=bool)
        self._data_bits[: mvcc.num_rows] = True
        self._delta_bits = np.zeros(storage.delta_capacity_rows, dtype=bool)
        self._flush()

    # ------------------------------------------------------------------
    # Incremental update
    # ------------------------------------------------------------------
    def update_to(self, ts: int) -> SnapshotCost:
        """Apply committed records up to ``ts``; flush bitmap copies."""
        if ts < self.last_snapshot_ts:
            raise SnapshotError(
                f"snapshot timestamp {ts} precedes last snapshot "
                f"{self.last_snapshot_ts}"
            )
        if ts == self.last_snapshot_ts:
            # Already at this horizon — repeated calls are idempotent
            # no-ops rather than a log walk plus a fresh cost object.
            return SnapshotCost(records=0, bits_flipped=0, metadata_bytes=0, bitmap_bytes=0)
        records = 0
        bits = 0
        touched_granules = set()
        for record in self.mvcc.log_between(self.last_snapshot_ts, ts):
            records += 1
            if record.kind == "update":
                bits += self._set(record.prev_ref, False, touched_granules)
                bits += self._set(record.new_ref, True, touched_granules)
            elif record.kind == "insert":
                bits += self._set(record.new_ref, True, touched_granules)
            elif record.kind == "delete":
                bits += self._set(record.prev_ref, False, touched_granules)
            else:  # pragma: no cover - log kinds are closed
                raise SnapshotError(f"unknown log record kind {record.kind!r}")
        self.last_snapshot_ts = ts
        if records:
            self._flush()
        line = self.storage.rank.geometry.cache_line_bytes
        return SnapshotCost(
            records=records,
            bits_flipped=bits,
            metadata_bytes=records * METADATA_BYTES,
            bitmap_bytes=len(touched_granules) * line,
        )

    def _set(self, ref, value: bool, touched: set) -> int:
        if ref is None:
            raise SnapshotError("log record missing a row reference")
        bits = self._data_bits if ref.region == Region.DATA else self._delta_bits
        if ref.index >= len(bits):
            raise SnapshotError(f"{ref.region} bitmap row {ref.index} out of range")
        if bits[ref.index] == value:
            return 0
        bits[ref.index] = value
        # Group by the unit the cost model charges: one cache line of
        # packed bitmap covers 8 * cache_line_bytes rows. (Grouping by
        # the per-device interleave granularity instead would overcount
        # touched lines whenever granularity != cache_line_bytes.)
        line = self.storage.rank.geometry.cache_line_bytes
        touched.add((ref.region, ref.index // (8 * line)))
        return 1

    def _flush(self) -> None:
        # Each call is one broadcast store: the per-device copies share a
        # local address (ADE-aligned, Fig. 6a).
        self.storage.write_bitmap(Region.DATA, self._packed(self._data_bits))
        self.storage.write_bitmap(Region.DELTA, self._packed(self._delta_bits))

    @staticmethod
    def _packed(bits: np.ndarray) -> np.ndarray:
        if not len(bits):
            return np.zeros(1, dtype=np.uint8)  # an empty region keeps one byte
        return np.packbits(bits, bitorder="little")

    # ------------------------------------------------------------------
    # Introspection / defragmentation hook
    # ------------------------------------------------------------------
    def visible_data_rows(self) -> np.ndarray:
        """Boolean visibility of data-region rows."""
        return self._data_bits.copy()

    def visible_delta_rows(self) -> np.ndarray:
        """Boolean visibility of delta-region rows."""
        return self._delta_bits.copy()

    def visible_count(self) -> int:
        """Total visible rows across both regions."""
        return int(self._data_bits.sum() + self._delta_bits.sum())

    def rebuild_after_defrag(self, ts: int, live_rows: int, tombstoned) -> None:
        """Reset bitmaps after defragmentation folded the delta region.

        All live data rows become visible, tombstoned rows invisible, and
        the delta region empties. ``ts`` becomes the new snapshot horizon
        (OLTP is paused during defragmentation, §5.3, so nothing is
        in-flight).
        """
        self._data_bits[:] = False
        self._data_bits[:live_rows] = True
        tombstoned = np.asarray(list(tombstoned), dtype=np.intp)
        if tombstoned.size:
            self._data_bits[tombstoned] = False
        self._delta_bits[:] = False
        self.last_snapshot_ts = ts
        self._flush()
