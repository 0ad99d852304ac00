"""Randomized abort-unwind histories for the packed MVCC visibility index.

:class:`~repro.mvcc.manager.MVCCManager` keeps two parallel
representations of row visibility: the object graph (``_chains`` /
``_tombstones`` / ``_dead_rows``) and the packed NumPy index
(``_head_ts`` / ``_head_delta`` / ``_chain_len`` / ``_tomb_ts`` /
``_dead``) that the read and scan paths trust blindly. Every
write path mutates both by hand, and the abort paths (``undo_update`` /
``undo_insert`` / ``undo_delete``) unwind those mutations by hand too —
a desync is silent until some later query reads a stale packed entry.

These tests drive seeded random transaction windows of mixed
insert/update/delete operations, roll a fraction of them back in
reverse exactly as ``TxnContext`` does, and after EVERY single
``undo_*`` call compare the packed index against a from-scratch rebuild
of the object graph.
"""

import numpy as np
import pytest

from repro.mvcc.manager import MVCCManager
from repro.mvcc.metadata import Region

INITIAL_ROWS = 40
CAPACITY = 96
BLOCK = 16


def build_mvcc() -> MVCCManager:
    """A standalone manager — location bookkeeping needs no storage."""
    return MVCCManager(INITIAL_ROWS, CAPACITY, BLOCK, 8, 26)


def rebuild_packed(mvcc):
    """Recompute the packed visibility index from the object graph.

    This is the ground truth the incrementally hand-mutated arrays must
    match at all times: chains determine head ts/location and length,
    the tombstone dict the tomb ts, the folded dead set the dead flag.
    """
    cap = len(mvcc._head_ts)
    head_ts = np.zeros(cap, dtype=np.int64)
    head_delta = np.full(cap, -1, dtype=np.int64)
    chain_len = np.zeros(cap, dtype=np.int64)
    tomb_ts = np.full(cap, -1, dtype=np.int64)
    dead = np.zeros(cap, dtype=bool)
    for row_id, chain in mvcc._chains.items():
        chain_len[row_id] = chain.length()
        head_ts[row_id] = chain.head.write_ts
        if chain.head.location.region == Region.DELTA:
            head_delta[row_id] = chain.head.location.index
    for row_id, ts in mvcc._tombstones.items():
        tomb_ts[row_id] = ts
    for row_id in mvcc._dead_rows:
        dead[row_id] = True
    return head_ts, head_delta, chain_len, tomb_ts, dead


def assert_packed_matches(mvcc, context=""):
    """The packed index must equal a from-scratch rebuild, field by field."""
    head_ts, head_delta, chain_len, tomb_ts, dead = rebuild_packed(mvcc)
    np.testing.assert_array_equal(mvcc._head_ts, head_ts, err_msg=f"_head_ts {context}")
    np.testing.assert_array_equal(
        mvcc._head_delta, head_delta, err_msg=f"_head_delta {context}"
    )
    np.testing.assert_array_equal(
        mvcc._chain_len, chain_len, err_msg=f"_chain_len {context}"
    )
    np.testing.assert_array_equal(mvcc._tomb_ts, tomb_ts, err_msg=f"_tomb_ts {context}")
    np.testing.assert_array_equal(mvcc._dead, dead, err_msg=f"_dead {context}")
    expected_delta_heads = {
        row_id
        for row_id, chain in mvcc._chains.items()
        if chain.head.location.region == Region.DELTA
    }
    assert set(mvcc._delta_heads) == expected_delta_heads, f"_delta_heads {context}"
    expected_stale = sum(chain.length() - 1 for chain in mvcc._chains.values())
    assert mvcc._stale_versions == expected_stale, f"_stale_versions {context}"


def mutable_rows(mvcc):
    """Rows a transaction may touch: not tombstoned, not folded dead."""
    return [
        row_id
        for row_id in range(mvcc.num_rows)
        if row_id not in mvcc._tombstones and row_id not in mvcc._dead_rows
    ]


def run_window(mvcc, rng, ts):
    """One transaction's worth of random ops at ``ts``.

    Returns the undo list built with the same discipline ``TxnContext``
    uses: an update registers an undo only when the chain actually grew
    (a second update at the same ts overwrites in place), and ops are
    appended in execution order for reverse unwinding.
    """
    undo = []
    for _ in range(int(rng.integers(1, 7))):
        live = mutable_rows(mvcc)
        roll = rng.random()
        if (roll < 0.25 and mvcc.num_rows < CAPACITY) or not live:
            row_id, _ = mvcc.insert(ts)
            undo.append(("insert", row_id))
        elif roll < 0.45:
            row_id = live[int(rng.integers(len(live)))]
            mvcc.delete(row_id, ts)
            undo.append(("delete", row_id))
        else:
            row_id = live[int(rng.integers(len(live)))]
            before = mvcc.chain_length(row_id)
            mvcc.update(row_id, ts)
            if mvcc.chain_length(row_id) > before:
                undo.append(("update", row_id))
    return undo


def unwind(mvcc, undo):
    """Abort: unwind in reverse, checking the index after every step."""
    for step, (kind, row_id) in enumerate(reversed(undo)):
        if kind == "update":
            mvcc.undo_update(row_id)
        elif kind == "insert":
            mvcc.undo_insert(row_id)
        else:
            mvcc.undo_delete(row_id)
        assert_packed_matches(mvcc, f"after undo_{kind}({row_id}) step {step}")


@pytest.mark.parametrize("seed", [11, 23, 37, 59, 71])
def test_random_histories_keep_packed_index_in_sync(seed):
    """Mixed commit/abort windows; packed index checked after every undo."""
    mvcc = build_mvcc()
    rng = np.random.default_rng(seed)
    ts = 100
    for _ in range(40):
        ts += 1
        undo = run_window(mvcc, rng, ts)
        if rng.random() < 0.5:
            unwind(mvcc, undo)  # abort
        assert_packed_matches(mvcc, f"after txn ts={ts}")
        if rng.random() < 0.1:
            # Between transactions the log has no pending undo: fold.
            mvcc.compact()
            assert_packed_matches(mvcc, f"after compact ts={ts}")


def test_same_row_insert_update_delete_unwound():
    """The worst interleaving on one row, unwound step by step."""
    mvcc = build_mvcc()
    ts = 500
    row_id, _ = mvcc.insert(ts)
    # Same-ts update of a fresh insert overwrites in place: no undo entry.
    before = mvcc.chain_length(row_id)
    mvcc.update(row_id, ts)
    assert mvcc.chain_length(row_id) == before
    mvcc.delete(row_id, ts)
    assert_packed_matches(mvcc, "after insert+update+delete")
    unwind(mvcc, [("insert", row_id), ("delete", row_id)])
    assert mvcc.num_rows == INITIAL_ROWS
    assert_packed_matches(mvcc, "after full unwind")


def test_update_then_delete_existing_row_unwound():
    """Update + delete of a pre-existing row rolls back to the origin."""
    mvcc = build_mvcc()
    row_id = 3
    mvcc.update(row_id, ts=600)  # committed earlier version
    mvcc.update(row_id, ts=601)
    mvcc.delete(row_id, ts=601)
    assert_packed_matches(mvcc, "before abort")
    unwind(mvcc, [("update", row_id), ("delete", row_id)])
    # The earlier committed version survives; the aborted one is gone.
    assert mvcc._head_ts[row_id] == 600
    assert mvcc._tomb_ts[row_id] == -1
    assert_packed_matches(mvcc, "after abort")
