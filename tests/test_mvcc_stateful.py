"""Stateful property testing: MVCC + snapshots vs a pure-Python model.

A hypothesis rule-based machine drives the MVCC manager and snapshot
manager with arbitrary interleavings of updates, inserts, deletes,
snapshot refreshes, and defragmentations, checking after every step that
the snapshot's visible set equals the model's, that reads resolve to
the model's version history, and that every public output of the
manager equals the version-chain oracle's driven through the same steps.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
import hypothesis.strategies as st

from repro.core.defrag import DefragExecutor
from repro.core.snapshot import SnapshotManager
from repro.core.storage import RankAllocator, TableStorage
from repro.core.config import DeviceGeometry
from repro.format.binpack import compact_aligned_layout
from repro.format.schema import Column, TableSchema
from repro.mvcc.manager import MVCCManager
from repro.pim.memory import Rank
from tests.test_vectorized_equivalence import OracleMVCC, assert_same_state, newest_delta

SCHEMA = TableSchema.of("t", [Column("k", 4), Column("v", 4)])
INITIAL_ROWS = 40
CAPACITY = 96
BLOCK = 16


class MVCCMachine(RuleBasedStateMachine):
    """Engine-vs-model machine over one small table."""

    def __init__(self):
        super().__init__()
        rank = Rank(DeviceGeometry(), device_bytes=1 << 18)
        layout = compact_aligned_layout(SCHEMA, ["k"], 8, 0.5)
        self.storage = TableStorage(
            rank, RankAllocator(rank), layout, CAPACITY, 26 * BLOCK, BLOCK
        )
        self.mvcc = MVCCManager(INITIAL_ROWS, CAPACITY, BLOCK, 8, 26)
        self.oracle = OracleMVCC(INITIAL_ROWS, CAPACITY, BLOCK, 8, 26)
        for i in range(INITIAL_ROWS):
            self.storage.write_row(i, -1, {"k": i, "v": i * 10})
        self.snap = SnapshotManager(self.storage, self.mvcc)
        self.defrag = DefragExecutor(
            self.storage, self.mvcc, self.snap, bdw_cpu=100.0, bdw_pim=1000.0
        )
        self.ts = 0
        # Model: row_id -> current value; None marks deleted.
        self.model = {i: i * 10 for i in range(INITIAL_ROWS)}
        self.deleted = set()

    def _next_ts(self):
        self.ts += 1
        return self.ts

    @rule(data=st.data())
    def update_row(self, data):
        live = [r for r in self.model if r not in self.deleted]
        if not live:
            return
        row_id = data.draw(st.sampled_from(live))
        value = data.draw(st.integers(min_value=0, max_value=2**31))
        ts = self._next_ts()
        version = self.mvcc.update(row_id, ts)
        assert self.oracle.update(row_id, ts) == version
        self.storage.write_row(row_id, version[1], {"k": row_id, "v": value})
        self.model[row_id] = value

    @rule(value=st.integers(min_value=0, max_value=2**31))
    def insert_row(self, value):
        if self.mvcc.num_rows >= CAPACITY:
            return
        ts = self._next_ts()
        row_id = self.mvcc.insert(ts)
        assert self.oracle.insert(ts) == row_id
        self.storage.write_row(row_id, -1, {"k": row_id, "v": value})
        self.model[row_id] = value

    @rule(data=st.data())
    def delete_row(self, data):
        live = [r for r in self.model if r not in self.deleted]
        if not live:
            return
        row_id = data.draw(st.sampled_from(live))
        ts = self._next_ts()
        assert self.mvcc.delete(row_id, ts) == self.oracle.delete(row_id, ts)
        self.deleted.add(row_id)

    @rule()
    def refresh_snapshot(self):
        self.snap.update_to(self.ts)

    @rule()
    def run_defrag(self):
        self.defrag.run(self.ts)
        self.oracle.compact()

    @invariant()
    def matches_oracle(self):
        assert_same_state(self.mvcc, self.oracle, probes=(self.ts,))

    @invariant()
    def reads_match_model(self):
        for row_id, value in list(self.model.items())[:10]:
            if row_id in self.deleted:
                continue
            delta, _ = self.mvcc.read(row_id, self.ts)
            row = self.storage.read_row(row_id, delta)
            assert row["v"] == value, (row_id, row, value)

    @invariant()
    def snapshot_counts_live_rows_after_refresh(self):
        # Only check when the snapshot is current.
        if self.snap.last_snapshot_ts != self.ts:
            return
        live = len(self.model) - len(self.deleted)
        assert self.snap.visible_count() == live

    @invariant()
    def visible_rows_resolve_to_newest_values(self):
        if self.snap.last_snapshot_ts != self.ts:
            return
        data_bits = self.snap.visible_data_rows()
        delta_bits = self.snap.visible_delta_rows()
        # Every visible data row must be a live row whose newest version
        # is the data region (or defrag just folded it home).
        for row_id in np.nonzero(data_bits)[0][:10]:
            assert int(row_id) in self.model
            assert int(row_id) not in self.deleted
        # Visible delta rows are exactly the newest versions of live,
        # updated rows.
        newest = [newest_delta(self.mvcc, r) for r in self.model if r not in self.deleted]
        heads = {delta for delta in newest if delta >= 0}
        visible_delta = {int(i) for i in np.nonzero(delta_bits)[0]}
        assert visible_delta == heads
        for index in visible_delta:
            assert self.mvcc.delta.is_allocated(index)


MVCCMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestMVCCStateful = MVCCMachine.TestCase
