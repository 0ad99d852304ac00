"""Host memory as a measured layer: per-row MVCC metadata is sized to the
rows that exist, so a table's insert headroom costs no host memory.

The reference below is the manager and snapshot as they were when every
per-row array was ``int64`` (``bool`` for the dead flag) over the whole
capacity and a defragmentation cleared the whole bitmap: every history
must leave both stacks with the same outputs, bits and device bitmaps.
"""

import numpy as np
import pytest

from repro import PushTapEngine
from repro.core.config import DeviceGeometry
from repro.core.defrag import DefragExecutor
from repro.core.snapshot import SnapshotManager
from repro.core.storage import RankAllocator, TableStorage
from repro.errors import TransactionError
from repro.format.binpack import compact_aligned_layout
from repro.format.schema import Column, TableSchema
from repro.mvcc import manager as mvcc_module
from repro.mvcc.manager import MVCCManager
from repro.mvcc.metadata import Region
from repro.pim.memory import Rank

#: Bytes per row of the five per-row arrays: head and chain length int32,
#: two timestamps int64, the dead flag one byte.
ROW_BYTES = 4 + 8 + 4 + 8 + 1

SCHEMA = TableSchema.of("t", [Column("k", 4), Column("v", 4)])
BLOCK = 8
CAPACITY = 300
DELTA_BLOCKS = 128


class CapacitySizedMVCC(MVCCManager):
    """Every per-row array over the whole capacity, at ``int64``."""

    def _hold_rows(self, size):
        super()._hold_rows(self.data.num_rows)
        self._head = self._head.astype(np.int64)
        self._chain_len = self._chain_len.astype(np.int64)


class FullClearSnapshots(SnapshotManager):
    """A defragmentation clears every bit of both bitmaps first, then
    stores both whole bitmaps."""

    def rebuild_after_defrag(self, ts):
        self._bits[:] = False
        self._data_bits[: self.mvcc.num_rows] = self.mvcc.alive_at(ts)
        self.last_snapshot_ts = ts
        for region, bits in ((Region.DATA, self._data_bits), (Region.DELTA, self._delta_bits)):
            self.storage.write_bitmap(region, np.packbits(bits, bitorder="little"))


def stack(mvcc_cls, snapshot_cls, initial_rows):
    rank = Rank(DeviceGeometry(), device_bytes=1 << 18)
    layout = compact_aligned_layout(SCHEMA, ["k"], 8, 0.5)
    storage = TableStorage(
        rank, RankAllocator(rank), layout, CAPACITY, DELTA_BLOCKS * BLOCK, BLOCK
    )
    mvcc = mvcc_cls(initial_rows, CAPACITY, BLOCK, 8, DELTA_BLOCKS)
    for row in range(initial_rows):
        storage.write_row(row, -1, {"k": row, "v": row})
    snapshots = snapshot_cls(storage, mvcc)
    defrag = DefragExecutor(storage, mvcc, snapshots, bdw_cpu=100.0, bdw_pim=1000.0)
    return storage, mvcc, snapshots, defrag


def assert_same(new, ref, ts):
    (storage, mvcc, snap, _), (ref_storage, ref_mvcc, ref_snap, _) = new, ref
    assert mvcc.num_rows == ref_mvcc.num_rows
    assert mvcc.journal.records == ref_mvcc.journal.records
    for a, b in zip(mvcc.journal, ref_mvcc.journal):
        np.testing.assert_array_equal(a, b)
    n = mvcc.num_rows
    for name, _, _ in mvcc_module._ROW_ARRAYS:
        np.testing.assert_array_equal(getattr(mvcc, name)[:n], getattr(ref_mvcc, name)[:n])
    assert mvcc.tombstoned_rows() == ref_mvcc.tombstoned_rows()
    np.testing.assert_array_equal(mvcc.updated_rows(), ref_mvcc.updated_rows())
    for a, b in zip(
        mvcc.visible_refs_at(ts, mvcc.delta.high_water_rows),
        ref_mvcc.visible_refs_at(ts, ref_mvcc.delta.high_water_rows),
    ):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(snap.visible_data_rows(), ref_snap.visible_data_rows())
    np.testing.assert_array_equal(snap.visible_delta_rows(), ref_snap.visible_delta_rows())
    for region in (Region.DATA, Region.DELTA):
        np.testing.assert_array_equal(
            storage.read_bitmap(region), ref_storage.read_bitmap(region)
        )


def apply(step, target, ts, rng_value):
    """Run one step on one stack; returns what the step returned."""
    storage, mvcc, snap, defrag = target
    kind, arg = step
    if kind == "insert":
        row = mvcc.insert(ts)
        storage.write_row(row, -1, {"k": row, "v": rng_value})
        return row
    if kind == "update":
        out = mvcc.update(arg, ts)
        storage.write_row(arg, out[1], {"k": arg, "v": rng_value})
        return out
    if kind == "delete":
        return mvcc.delete(arg, ts)
    if kind == "read":
        return mvcc.read(arg, ts)
    if kind == "snapshot":
        return snap.update_to(ts)
    return defrag.run(ts)


class TestSameHistoryAsCapacitySized:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_growing_history_matches(self, seed):
        rng = np.random.default_rng(seed)
        new = stack(MVCCManager, SnapshotManager, 5)
        ref = stack(CapacitySizedMVCC, FullClearSnapshots, 5)
        sizes, ts, live, defrags = {len(new[1]._head)}, 0, set(range(5)), 0
        while new[1].num_rows < 200:
            ts += 1
            roll = rng.random()
            value = int(rng.integers(1 << 20))
            row = int(rng.choice(sorted(live))) if live else -1
            if roll < 0.45 or not live:
                step = ("insert", None)
            elif roll < 0.7:
                step = ("update", row)
            elif roll < 0.75:
                step = ("delete", row)
            elif roll < 0.85:
                step = ("read", row)
            elif roll < 0.97:
                step = ("snapshot", None)
            else:
                step = ("defrag", None)
                defrags += 1
            out = apply(step, new, ts, value)
            assert out == apply(step, ref, ts, value)
            if step[0] == "insert":
                live.add(out)
            elif step[0] == "delete":
                live.discard(row)
            if rng.random() < 0.1 and step[0] in ("insert", "update", "delete"):
                # The step's transaction aborts: both stacks pop it.
                assert new[1].rollback(ts) == ref[1].rollback(ts)
                if step[0] == "insert":
                    live.discard(out)
                elif step[0] == "delete":
                    live.add(row)
            sizes.add(len(new[1]._head))
            assert_same(new, ref, ts)
        assert defrags and len(sizes) >= 5, (defrags, sizes)
        assert len(new[1]._head) < CAPACITY == len(ref[1]._head)

    def test_table_full_at_capacity(self):
        mvcc, ref = (cls(0, 20, BLOCK, 8, 4) for cls in (MVCCManager, CapacitySizedMVCC))
        for ts in range(1, 21):
            assert mvcc.insert(ts) == ref.insert(ts) == ts - 1
        assert len(mvcc._head) == 20
        for manager in (mvcc, ref):
            with pytest.raises(TransactionError, match="table full: capacity 20"):
                manager.insert(21)
            assert manager.num_rows == 20 and manager.journal.records == 20

    def test_rebuild_after_defrag_equals_full_clear(self):
        new = stack(MVCCManager, SnapshotManager, 40)
        ref = stack(CapacitySizedMVCC, FullClearSnapshots, 40)
        steps = [("update", r) for r in range(0, 40, 3)] + [("delete", 7), ("delete", 9)]
        steps += [("insert", None)] * 10 + [("update", 41), ("snapshot", None)]
        for ts, step in enumerate(steps, start=1):
            assert apply(step, new, ts, ts) == apply(step, ref, ts, ts)
        assert new[2].visible_delta_rows().any()
        for target in (new, ref):
            apply(("defrag", None), target, len(steps), 0)
        assert_same(new, ref, len(steps))
        assert not new[2].visible_delta_rows().any()


class TestJournalGuard:
    def test_append_raises_at_the_limit_and_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(mvcc_module, "_JOURNAL_LIMIT", 3)
        mvcc = MVCCManager(4, 16, BLOCK, 8, 4)
        mvcc.update(0, 1)
        mvcc.insert(2)
        mvcc.delete(1, 3)
        before = (mvcc.num_rows, mvcc.journal.records, mvcc.delta.allocated_rows)
        for write in (lambda: mvcc.update(2, 4), lambda: mvcc.insert(4), lambda: mvcc.delete(3, 4)):
            with pytest.raises(TransactionError, match="journal full: 3 entries"):
                write()
            assert (mvcc.num_rows, mvcc.journal.records, mvcc.delta.allocated_rows) == before
        assert mvcc.tombstoned_rows() == [1]
        assert mvcc.chain_length(2) == 1
        mvcc.compact()
        mvcc.update(2, 5)  # a compaction empties the journal again

    def test_the_limit_fits_int32(self):
        limit = mvcc_module._JOURNAL_LIMIT
        mvcc = MVCCManager(1, 1, BLOCK, 8, 4)
        assert mvcc._head.dtype == mvcc._chain_len.dtype == np.int32
        # A head is a position below the limit, a chain length at most 1 + limit.
        assert limit + 1 <= np.iinfo(np.int32).max


class TestHeadroomIsFree:
    def test_extra_rows_add_no_mvcc_bytes(self):
        tight = PushTapEngine.build(scale=2e-5, seed=7, extra_rows=0)
        roomy = PushTapEngine.build(scale=2e-5, seed=7, extra_rows=100_000)
        for name, table in tight.db.tables.items():
            other = roomy.db.tables[name]
            assert other.mvcc.data.num_rows == table.mvcc.data.num_rows + 100_000
            assert other.mvcc.row_bytes == table.mvcc.row_bytes, name
        assert roomy.memory_bytes()["mvcc_rows"] == tight.memory_bytes()["mvcc_rows"]

    @pytest.mark.parametrize("scale", [2e-5, 2e-4])
    def test_mvcc_bytes_per_row_at_build(self, scale):
        engine = PushTapEngine.build(scale=scale, seed=7)
        held = 0
        for table in engine.db.tables.values():
            data = table.mvcc.data
            rows = max(table.num_rows, min(data.block_rows, data.num_rows))
            assert table.mvcc.row_bytes == ROW_BYTES * rows, table.name
            held += rows
        memory = engine.memory_bytes()
        assert memory["mvcc_rows"] == ROW_BYTES * held
        assert memory["index_entries"] == sum(
            len(t.index) for t in engine.db.tables.values() if t.index is not None
        )
        assert memory["wram"] == engine.num_units * engine.config.pim.wram_bytes
        assert set(memory) == {
            "mvcc_rows", "mvcc_journal", "snapshot_bits", "wram", "index_bytes", "index_entries"
        }

    def test_index_bytes_grow_with_index_entries(self):
        engine = PushTapEngine.build(scale=2e-5, seed=7, block_rows=64)
        before = engine.memory_bytes()
        engine.run_transactions(100, engine.make_driver(seed=3))
        after = engine.memory_bytes()
        assert after["index_entries"] > before["index_entries"]
        assert after["index_bytes"] > before["index_bytes"]

    def test_inserts_grow_the_arrays_geometrically(self):
        engine = PushTapEngine.build(scale=2e-5, seed=7, block_rows=64)
        mvcc = engine.table("neworder").mvcc
        start = len(mvcc._head)
        engine.run_transactions(200, engine.make_driver(seed=3))
        assert mvcc.num_rows > start
        assert start < len(mvcc._head) <= 2 * mvcc.num_rows
        assert mvcc.row_bytes == ROW_BYTES * len(mvcc._head)
