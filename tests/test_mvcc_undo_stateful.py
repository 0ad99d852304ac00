"""Randomized abort-unwind histories: the version journal vs its oracle.

:class:`~repro.mvcc.manager.MVCCManager` keeps one table's history as one
journal plus per-row heads, and aborts pop the journal tail with
``rollback(ts)``. :class:`~tests.test_vectorized_equivalence.OracleMVCC`
is the manager it replaced — chains, tombstone dict, dead-row set, log
and packed index, each unwound by hand through ``undo_*``.

These tests drive seeded random transaction windows of mixed
insert/update/delete operations through both, roll a fraction of them
back exactly as ``TxnContext`` does (one ``rollback(ts)``), and after
every window, rollback and compaction compare every public output.
"""

import numpy as np
import pytest

from repro.mvcc.manager import MVCCManager
from tests.test_vectorized_equivalence import OracleMVCC, assert_same_state, newest_delta

INITIAL_ROWS = 40
CAPACITY = 96
BLOCK = 16


def build_pair():
    """A standalone manager and its oracle — no storage needed."""
    return MVCCManager(INITIAL_ROWS, CAPACITY, BLOCK, 8, 26), OracleMVCC(
        INITIAL_ROWS, CAPACITY, BLOCK, 8, 26
    )


def mutable_rows(mvcc):
    """Rows a transaction may touch: not tombstoned, not folded dead."""
    dead = set(mvcc.tombstoned_rows())
    return [row_id for row_id in range(mvcc.num_rows) if row_id not in dead]


def run_window(pair, rng, ts):
    """One transaction's worth of random ops at ``ts``, on both managers."""
    mvcc, oracle = pair
    for _ in range(int(rng.integers(1, 7))):
        live = mutable_rows(mvcc)
        roll = rng.random()
        if (roll < 0.25 and mvcc.num_rows < CAPACITY) or not live:
            assert mvcc.insert(ts) == oracle.insert(ts)
        elif roll < 0.45:
            row_id = live[int(rng.integers(len(live)))]
            assert mvcc.delete(row_id, ts) == oracle.delete(row_id, ts)
        else:
            row_id = live[int(rng.integers(len(live)))]
            assert mvcc.update(row_id, ts) == oracle.update(row_id, ts)


def rollback(pair, ts, context):
    """Abort: one rollback(ts) on each, then every output must agree."""
    for manager in pair:
        manager.rollback(ts)
    assert_same(pair, ts, context)


def assert_same(pair, ts, context):
    try:
        assert_same_state(*pair, probes=(ts - 1, ts, ts + 1))
    except AssertionError as exc:
        raise AssertionError(f"{context}: {exc}") from None


@pytest.mark.parametrize("seed", [11, 23, 37, 59, 71])
def test_random_histories_keep_packed_index_in_sync(seed):
    """Mixed commit/abort windows; every output checked after each."""
    pair = build_pair()
    rng = np.random.default_rng(seed)
    ts = 100
    for _ in range(40):
        ts += 1
        run_window(pair, rng, ts)
        assert_same(pair, ts, f"after txn ts={ts}")
        if rng.random() < 0.5:
            rollback(pair, ts, f"after rollback ts={ts}")
        if rng.random() < 0.1:
            # Between transactions nothing is in flight: fold.
            rows, deltas = pair[0].compact()
            moves = pair[1].compact()
            assert sorted(moves) == list(zip(rows.tolist(), deltas.tolist()))
            assert_same(pair, ts, f"after compact ts={ts}")


def test_same_row_insert_update_delete_unwound():
    """The worst interleaving on one row, rolled back at once."""
    pair = build_pair()
    mvcc, oracle = pair
    ts = 500
    row_id = mvcc.insert(ts)
    oracle.insert(ts)
    # Same-ts update of a fresh insert overwrites in place: no entry.
    for manager in pair:
        manager.update(row_id, ts)
        assert manager.chain_length(row_id) == 1
        manager.delete(row_id, ts)
    assert mvcc.log_length == 2
    assert_same(pair, ts, "after insert+update+delete")
    rollback(pair, ts, "after full rollback")
    assert mvcc.num_rows == INITIAL_ROWS
    assert mvcc.log_length == 0


def test_update_then_delete_existing_row_unwound():
    """Update + delete of a pre-existing row rolls back to the origin."""
    pair = build_pair()
    mvcc, oracle = pair
    row_id = 3
    _, committed, _ = mvcc.update(row_id, ts=600)  # committed earlier version
    oracle.update(row_id, ts=600)
    for manager in pair:
        manager.update(row_id, ts=601)
        manager.delete(row_id, ts=601)
    assert_same(pair, 601, "before abort")
    rollback(pair, 601, "after abort")
    # The earlier committed version survives; the aborted one is gone.
    assert newest_delta(mvcc, row_id) == committed
    assert mvcc.read(row_id, 601) == (committed, 2)
    assert mvcc.chain_length(row_id) == 2
    assert row_id not in mvcc.tombstoned_rows()
