"""Bitmap snapshotting (§5.2, Fig. 6c)."""

import numpy as np
import pytest

from repro.core.config import DeviceGeometry
from repro.core.snapshot import SnapshotManager
from repro.core.storage import RankAllocator, TableStorage
from repro.errors import SnapshotError
from repro.format.binpack import compact_aligned_layout
from repro.format.schema import Column, TableSchema
from repro.mvcc.manager import MVCCManager
from repro.mvcc.metadata import METADATA_BYTES, Region
from repro.pim.memory import Rank

SCHEMA = TableSchema.of("t", [Column("a", 4), Column("b", 4)])
BLOCK = 64


def make(rows=100):
    rank = Rank(DeviceGeometry(), device_bytes=1 << 18)
    layout = compact_aligned_layout(SCHEMA, ["a"], 8, 0.5)
    storage = TableStorage(rank, RankAllocator(rank), layout, 256, 256, BLOCK)
    mvcc = MVCCManager(rows, 256, BLOCK, 8, 4)
    return storage, mvcc, SnapshotManager(storage, mvcc)


class TestInitialState:
    def test_initial_rows_visible(self):
        _, _, snap = make(rows=100)
        assert snap.visible_data_rows()[:100].all()
        assert not snap.visible_data_rows()[100:].any()
        assert not snap.visible_delta_rows().any()
        assert snap.visible_count() == 100

    def test_bitmaps_flushed_to_devices(self):
        storage, _, _ = make(rows=100)
        packed = storage.read_bitmap(Region.DATA)
        bits = np.unpackbits(packed, bitorder="little")
        assert bits[:100].all() and not bits[100:256].any()


class TestIncrementalUpdate:
    def test_update_moves_visibility_to_delta(self):
        """Fig. 6c: T1 updates row a -> bit(a)=0, bit(d)=1."""
        _, mvcc, snap = make()
        _, delta, _ = mvcc.update(10, ts=1)
        cost = snap.update_to(1)
        assert cost.records == 1
        assert not snap.visible_data_rows()[10]
        assert snap.visible_delta_rows()[delta]
        assert snap.visible_count() == 100

    def test_chained_updates_keep_only_newest(self):
        _, mvcc, snap = make()
        _, first, _ = mvcc.update(10, ts=1)
        _, second, _ = mvcc.update(10, ts=2)
        snap.update_to(2)
        delta = snap.visible_delta_rows()
        assert not delta[first]
        assert delta[second]

    def test_future_transactions_skipped(self):
        """Fig. 6c: T5 (issued after the query) is not replayed."""
        _, mvcc, snap = make()
        mvcc.update(10, ts=1)
        _, late, _ = mvcc.update(11, ts=5)
        snap.update_to(3)
        assert not snap.visible_data_rows()[10]
        assert snap.visible_data_rows()[11]
        assert not snap.visible_delta_rows()[late]

    def test_catching_up_later(self):
        _, mvcc, snap = make()
        _, late, _ = mvcc.update(11, ts=5)
        snap.update_to(3)
        snap.update_to(5)
        assert snap.visible_delta_rows()[late]

    def test_insert_becomes_visible(self):
        _, mvcc, snap = make(rows=100)
        row_id = mvcc.insert(ts=2)
        snap.update_to(2)
        assert snap.visible_data_rows()[row_id]

    def test_delete_clears_visibility(self):
        _, mvcc, snap = make()
        mvcc.delete(5, ts=2)
        snap.update_to(2)
        assert not snap.visible_data_rows()[5]
        assert snap.visible_count() == 99

    def test_device_copies_match(self):
        storage, mvcc, snap = make()
        mvcc.update(33, ts=1)
        snap.update_to(1)
        reference = storage.read_bitmap(Region.DATA, 0)
        for device in range(1, 8):
            assert np.array_equal(storage.read_bitmap(Region.DATA, device), reference)

    def test_no_op_update_costs_nothing(self):
        _, _, snap = make()
        cost = snap.update_to(0)
        assert cost.records == 0
        assert cost.total_cpu_bytes == 0

    def test_cost_accounting(self):
        _, mvcc, snap = make()
        mvcc.update(1, ts=1)
        mvcc.update(2, ts=2)
        cost = snap.update_to(2)
        assert cost.records == 2
        assert cost.metadata_bytes == 2 * METADATA_BYTES
        assert cost.bits_flipped == 4
        assert cost.bitmap_bytes > 0

    def test_bitmap_cost_grouped_by_cache_line(self):
        """One packed-bitmap cache line covers 8 * cache_line_bytes rows.

        Rows 0 and 99 (and their delta rows) are farther apart than the
        8 B per-device interleave granularity but share one 64 B bitmap
        line each; grouping by granularity used to charge four lines.
        """
        storage, mvcc, snap = make()
        mvcc.update(0, ts=1)
        mvcc.update(99, ts=2)
        cost = snap.update_to(2)
        line = storage.rank.geometry.cache_line_bytes
        assert line == 64
        # One data-region granule + one delta-region granule.
        assert cost.bitmap_bytes == 2 * line

    def test_backwards_timestamp_rejected(self):
        _, mvcc, snap = make()
        mvcc.update(1, ts=1)
        snap.update_to(1)
        with pytest.raises(SnapshotError):
            snap.update_to(0)


class TestDefragRebuild:
    def test_rebuild_after_defrag(self):
        _, mvcc, snap = make(rows=100)
        mvcc.update(10, ts=1)
        mvcc.insert(ts=2)  # row 100
        mvcc.delete(7, ts=2)
        snap.update_to(2)
        mvcc.compact()
        snap.rebuild_after_defrag(ts=2)
        data = snap.visible_data_rows()
        assert data[10]
        assert data[100]
        assert not data[7]
        assert not snap.visible_delta_rows().any()
        assert snap.last_snapshot_ts == 2


class TestIdempotentUpdateTo:
    def test_repeat_at_same_horizon_is_zero_cost(self):
        """update_to(ts == last_snapshot_ts) must be a strict no-op."""
        from repro.core.snapshot import SnapshotCost

        _, mvcc, snap = make()
        mvcc.update(3, ts=1)
        first = snap.update_to(1)
        assert first.records == 1
        data_before = snap.visible_data_rows()
        delta_before = snap.visible_delta_rows()
        again = snap.update_to(1)
        assert again == SnapshotCost(
            records=0, bits_flipped=0, metadata_bytes=0, bitmap_bytes=0
        )
        assert again.total_cpu_bytes == 0
        assert snap.last_snapshot_ts == 1
        np.testing.assert_array_equal(snap.visible_data_rows(), data_before)
        np.testing.assert_array_equal(snap.visible_delta_rows(), delta_before)

    def test_initial_horizon_is_also_idempotent(self):
        _, _, snap = make()
        cost = snap.update_to(0)
        assert cost.records == 0
        assert cost.total_cpu_bytes == 0
        assert cost.bitmap_bytes == 0
