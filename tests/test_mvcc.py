"""MVCC: timestamps, version chains, regions, and the manager (§5.1).

:class:`VersionChain` is the oracle manager's chain (the production
manager keeps versions in its journal); its tests stay here.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryError_, TransactionError
from repro.mvcc.manager import MVCCManager
from repro.mvcc.metadata import METADATA_BYTES
from repro.mvcc.regions import DataRegion, DeltaAllocator
from repro.mvcc.timestamps import TimestampOracle
from tests.test_vectorized_equivalence import VersionChain, VersionEntry


class TestTimestampOracle:
    def test_monotonic(self):
        oracle = TimestampOracle()
        assert oracle.next_timestamp() == 1
        assert oracle.next_timestamp() == 2
        assert oracle.read_timestamp() == 2

    def test_read_timestamp_sees_committed(self):
        oracle = TimestampOracle()
        oracle.next_timestamp()
        assert oracle.read_timestamp() == 1


class TestVersionChain:
    def make_chain(self):
        origin = VersionEntry(0, -1)
        chain = VersionChain(5, origin)
        chain.install(VersionEntry(3, 0))
        chain.install(VersionEntry(7, 1))
        return chain

    def test_metadata_size_constant(self):
        assert METADATA_BYTES == 16  # the paper's m = 16

    def test_visibility(self):
        chain = self.make_chain()
        assert chain.visible_at(0).location == -1
        assert chain.visible_at(3).location == 0
        assert chain.visible_at(6).location == 0
        assert chain.visible_at(100).location == 1

    def test_length_and_versions(self):
        chain = self.make_chain()
        assert chain.length() == 3
        assert [v.write_ts for v in chain.versions()] == [7, 3, 0]

    def test_install_requires_newer_ts(self):
        chain = self.make_chain()
        with pytest.raises(TransactionError):
            chain.install(VersionEntry(7, 9))

    def test_read_ts_tracking(self):
        chain = self.make_chain()
        entry = chain.visible_at(5)
        entry.observe_read(5)
        entry.observe_read(4)
        assert entry.read_ts == 5

    def test_truncate_to_head(self):
        chain = self.make_chain()
        stale = chain.truncate_to_head()
        assert len(stale) == 2
        assert chain.length() == 1

    def test_stale_refs(self):
        assert len(self.make_chain().stale_refs()) == 2

    def test_rowref_validation(self):
        """A version is ``(row_id, delta)``; storage refuses one outside
        its region — a negative data row, or a delta below the −1 that
        names the data slot."""
        from tests.test_storage import make_storage

        storage = make_storage()
        with pytest.raises(MemoryError_, match=r"'t': data row -1 out of range"):
            storage.read_row(-1, -1)
        with pytest.raises(MemoryError_, match=r"'t': delta row -2 out of range"):
            storage.read_row(0, -2)


class TestDataRegion:
    def test_blocks_and_rotation(self):
        region = DataRegion(5000, 1024, 8)
        assert region.block_of(region.num_rows - 1) == 4
        assert region.block_of(1023) == 0
        assert region.block_of(1024) == 1
        assert region.rotation_of(1024) == 1

    def test_bounds(self):
        region = DataRegion(100, 64, 8)
        with pytest.raises(TransactionError):
            region.block_of(100)


class TestDeltaAllocator:
    def test_rotation_respected(self):
        alloc = DeltaAllocator(block_rows=64, num_devices=4, capacity_blocks=8)
        for rotation in range(4):
            index = alloc.allocate(rotation)
            assert alloc.rotation_of(index) == rotation

    def test_release_and_reuse(self):
        alloc = DeltaAllocator(64, 4, 8)
        index = alloc.allocate(2)
        alloc.release(index)
        assert not alloc.is_allocated(index)
        again = alloc.allocate(2)
        assert alloc.rotation_of(again) == 2

    def test_capacity_enforced(self):
        alloc = DeltaAllocator(4, 2, 2)
        for _ in range(4):
            alloc.allocate(0)
        with pytest.raises(TransactionError, match="full"):
            alloc.allocate(0)

    def test_release_all(self):
        alloc = DeltaAllocator(16, 4, 8)
        for rotation in range(4):
            alloc.allocate(rotation)
        assert alloc.release_all() == 4
        assert alloc.allocated_rows == 0

    def test_double_release_rejected(self):
        alloc = DeltaAllocator(16, 4, 8)
        index = alloc.allocate(0)
        alloc.release(index)
        with pytest.raises(TransactionError):
            alloc.release(index)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=60))
    def test_allocation_invariants(self, rotations):
        alloc = DeltaAllocator(block_rows=8, num_devices=4, capacity_blocks=64)
        seen = set()
        for rotation in rotations:
            index = alloc.allocate(rotation)
            assert index not in seen
            seen.add(index)
            assert alloc.rotation_of(index) == rotation
        assert alloc.allocated_rows == len(seen)
        assert alloc.high_water_rows >= alloc.allocated_rows


class TestMVCCManager:
    def make(self, rows=100):
        return MVCCManager(
            initial_rows=rows,
            capacity_rows=256,
            block_rows=32,
            num_devices=8,
            delta_capacity_blocks=16,
        )

    def test_unversioned_read(self):
        mv = self.make()
        assert mv.read(5, 10) == (-1, 1)
        assert mv.chain_length(5) == 1

    def test_update_creates_delta_version(self):
        mv = self.make()
        src, dst, before = mv.update(5, ts=3)
        assert (src, before) == (-1, 1) and dst >= 0
        assert mv.read(5, 3) == (dst, 2)
        assert mv.read(5, 2) == (-1, 2)
        assert mv.chain_length(5) == 2

    def test_update_matches_rotation(self):
        """§5.1: new versions share their origin row's rotation."""
        mv = self.make()
        for row in (0, 33, 70):
            _, dst, _ = mv.update(row, ts=row + 1)
            assert mv.delta.rotation_of(dst) == mv.data.rotation_of(row)

    def test_insert_appends(self):
        mv = self.make(rows=100)
        row_id = mv.insert(ts=5)
        assert row_id == 100
        assert mv.num_rows == 101
        assert mv.read(row_id, 5) == (-1, 1)
        with pytest.raises(TransactionError):
            mv.read(row_id, 4)

    def test_insert_capacity(self):
        mv = MVCCManager(4, 4, 32, 8, 4)
        with pytest.raises(TransactionError, match="full"):
            mv.insert(1)

    def test_delete_tombstones(self):
        mv = self.make()
        assert mv.delete(7, ts=4) == 1
        mv.read(7, 3)
        with pytest.raises(TransactionError, match="deleted"):
            mv.read(7, 4)
        with pytest.raises(TransactionError):
            mv.delete(7, ts=6)

    def test_log_filtering(self):
        mv = self.make()
        mv.update(1, ts=2)
        mv.update(2, ts=4)
        mv.insert(ts=6)
        assert mv.log_between(2, 10**9).write_ts.tolist() == [4, 6]
        assert mv.log_between(2, 5).write_ts.tolist() == [4]
        assert mv.journal.records == 3

    def test_compact_moves_newest_and_truncates(self):
        mv = self.make()
        mv.update(1, ts=2)
        _, second, _ = mv.update(1, ts=3)
        rows, deltas = mv.compact()
        assert (rows.tolist(), deltas.tolist()) == ([1], [second])
        assert mv.chain_length(1) == 1
        assert mv.read(1, 10) == (-1, 1)
        assert mv.delta.allocated_rows == 0
        assert mv.journal.records == 0

    def test_stale_version_count(self):
        mv = self.make()
        mv.update(1, ts=2)
        mv.update(1, ts=3)
        mv.update(2, ts=4)
        assert mv.stale_version_count() == 3
        assert mv.updated_rows().tolist() == [1, 2]

    def test_out_of_range(self):
        mv = self.make()
        with pytest.raises(TransactionError):
            mv.read(100, 1)
        with pytest.raises(TransactionError):
            mv.update(-1, 1)


class TestTombstoneCompaction:
    """Defragmentation must not resurrect or move deleted rows."""

    def make(self):
        return MVCCManager(
            initial_rows=100,
            capacity_rows=256,
            block_rows=32,
            num_devices=8,
            delta_capacity_blocks=16,
        )

    def test_compact_skips_tombstoned_rows(self):
        mv = self.make()
        mv.update(5, ts=2)  # newest version in the delta...
        mv.delete(5, ts=3)  # ...then the row dies
        _, live, _ = mv.update(6, ts=4)
        rows, deltas = mv.compact()
        assert (rows.tolist(), deltas.tolist()) == ([6], [live])  # not the dead row
        assert mv.chain_length(5) == 1
        assert mv.delta.allocated_rows == 0

    def test_compact_folds_tombstones_into_dead_rows(self):
        mv = self.make()
        mv.delete(7, ts=2)
        mv.compact()
        assert mv.journal.records == 0  # the delete entry is gone...
        assert mv.tombstoned_rows() == [7]
        assert not mv.alive_at(0)[7]  # ...and the row is dead at every ts
        with pytest.raises(TransactionError, match="deleted"):
            mv.read(7, 10)
        with pytest.raises(TransactionError, match="already deleted"):
            mv.delete(7, ts=11)
        with pytest.raises(TransactionError, match="deleted"):
            mv.update(7, ts=12)

    def test_dead_rows_survive_further_compactions(self):
        mv = self.make()
        mv.delete(7, ts=2)
        mv.compact()
        mv.update(8, ts=3)
        mv.compact()
        assert mv.tombstoned_rows() == [7]
        assert not mv.alive_at(0)[7]
        with pytest.raises(TransactionError, match="deleted"):
            mv.read(7, 10)


class TestUpdateAtomicity:
    """update() validates before allocating and is idempotent per txn."""

    def make(self):
        return MVCCManager(
            initial_rows=100,
            capacity_rows=256,
            block_rows=32,
            num_devices=8,
            delta_capacity_blocks=16,
        )

    def test_same_ts_update_overwrites_in_place(self):
        mv = self.make()
        src, first, before = mv.update(5, ts=3)
        log_before = mv.journal.records
        again = mv.update(5, ts=3)
        # One version per (row, transaction): overwritten in place, with
        # the chain length it had before this transaction's install.
        assert (src, before) == (-1, 1)
        assert again == (first, first, 2)
        assert mv.chain_length(5) == 2
        assert mv.journal.records == log_before
        assert mv.delta.allocated_rows == 1

    def test_failed_update_leaks_no_delta_row(self):
        mv = self.make()
        mv.update(5, ts=3)
        before = mv.delta.allocated_rows
        with pytest.raises(TransactionError, match="precedes"):
            mv.update(5, ts=2)
        assert mv.delta.allocated_rows == before
