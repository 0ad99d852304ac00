"""Transaction aborts, rollback, failure injection, and Delivery."""

import itertools

import pytest

from repro.errors import TransactionAborted, TransactionError
from repro.oltp.tpcc import delivery, new_order, payment


def db_fingerprint(engine):
    """A cheap consistency fingerprint: per-table row counts + log lengths
    + delta occupancy."""
    out = {}
    for name, t in engine.db.tables.items():
        out[name] = (t.num_rows, t.mvcc.journal.records, t.mvcc.delta.allocated_rows)
    out["_indexes"] = {n: len(i) for n, i in engine.db.indexes.items()}
    return out


class TestAbort:
    def test_abort_rolls_back_everything(self, fresh_engine):
        engine = fresh_engine
        before = db_fingerprint(engine)
        driver = engine.make_driver(seed=2)
        params = driver.next_new_order()
        inner = new_order(params)

        def aborting(ctx):
            inner(ctx)
            ctx.abort("change of heart")

        result = engine.oltp.execute(aborting)
        assert result.aborted
        assert result.rows_written == 0
        assert db_fingerprint(engine) == before
        assert engine.oltp.aborted == 1

    def test_abort_restores_row_values(self, fresh_engine):
        engine = fresh_engine
        driver = engine.make_driver(seed=3)
        params = driver.next_payment()
        c_row = engine.db.index("customer_pk").probe((params.w_id, params.d_id, params.c_id))
        ts = engine.db.oracle.read_timestamp()
        before = engine.table("customer").read_row(c_row, ts)
        inner = payment(params)

        def aborting(ctx):
            inner(ctx)
            ctx.abort()

        engine.oltp.execute(aborting)
        ts = engine.db.oracle.read_timestamp()
        assert engine.table("customer").read_row(c_row, ts) == before

    def test_failure_injection_rolls_back_and_raises(self, fresh_engine):
        engine = fresh_engine
        before = db_fingerprint(engine)
        driver = engine.make_driver(seed=4)
        inner = new_order(driver.next_new_order())

        def crashing(ctx):
            inner(ctx)
            raise RuntimeError("simulated crash mid-transaction")

        with pytest.raises(RuntimeError):
            engine.oltp.execute(crashing)
        assert db_fingerprint(engine) == before

    def test_queries_unaffected_by_aborts(self, fresh_engine):
        engine = fresh_engine
        reference = engine.query("Q6").rows
        driver = engine.make_driver(seed=5)
        for _ in range(5):
            inner = driver.next_transaction()

            def aborting(ctx, inner=inner):
                inner(ctx)
                ctx.abort()

            engine.oltp.execute(aborting)
        assert engine.query("Q6").rows == reference

    def test_aborted_delete_restores_index_entry(self, fresh_engine):
        """An aborted delete must re-insert the index entry it removed.

        Regression: ``TxnContext.delete`` registered only ``undo_delete``
        for the tombstone, never an index undo, so rolling back a
        Delivery left ``neworder_pk`` permanently missing its keys.
        """
        engine = fresh_engine
        driver = engine.make_driver(seed=10)
        no_params = driver.next_new_order()
        engine.execute_transaction(new_order(no_params))
        d_params = driver.next_delivery()
        assert d_params is not None
        before = db_fingerprint(engine)
        inner = delivery(d_params)

        def aborting(ctx):
            inner(ctx)
            ctx.abort("client gave up at the last moment")

        result = engine.oltp.execute(aborting)
        assert result.aborted
        for order in d_params.orders:
            assert engine.db.index("neworder_pk").probe(order.o_id) is not None
        assert db_fingerprint(engine) == before
        # The restored entries are live: retrying the delivery commits.
        result = engine.execute_transaction(delivery(d_params))
        assert not result.aborted

    def test_aborted_id_reusable_after_rollback(self, fresh_engine):
        """Rolling back an insert removes its index entry, so a retry of
        the same parameters succeeds."""
        engine = fresh_engine
        driver = engine.make_driver(seed=6)
        params = driver.next_new_order()
        inner = new_order(params)

        def aborting(ctx):
            inner(ctx)
            ctx.abort()

        engine.oltp.execute(aborting)
        result = engine.execute_transaction(new_order(params))
        assert not result.aborted


def mvcc_state(mvcc):
    """What a rolled-back transaction must leave exactly as it found."""
    return (
        mvcc.num_rows,
        mvcc.journal.records,
        mvcc.stale_version_count(),
        mvcc.delta.allocated_rows,
    )


class TestFailedWriteRollback:
    """A write that fails after its version is installed rolls back too.

    Regression: the MVCC install happened before the value encode, and
    the undo step was registered only after both, so an encode error
    left the new version visible to every later reader.
    """

    def test_failed_update_encode_rolls_back(self, fresh_engine):
        from repro.errors import SchemaError

        mvcc = fresh_engine.table("warehouse").mvcc
        before = mvcc_state(mvcc)

        def bad_payment(ctx):
            ctx.update("district", 0, {"d_ytd": 5})
            ctx.update("warehouse", 0, {"w_ytd": -1})  # out of range

        with pytest.raises(SchemaError):
            fresh_engine.oltp.execute(bad_payment)
        later = fresh_engine.db.oracle.next_timestamp()
        assert mvcc.read(0, later) == (-1, 1)
        assert mvcc_state(mvcc) == before
        district = fresh_engine.table("district").mvcc
        assert district.read(0, later) == (-1, 1)

    def test_failed_insert_encode_rolls_back(self, fresh_engine):
        from repro.errors import SchemaError

        mvcc = fresh_engine.table("history").mvcc
        before = mvcc_state(mvcc)
        row = dict(h_c_id=1, h_c_d_id=1, h_c_w_id=1, h_d_id=1, h_w_id=1,
                   h_date=1, h_amount=1, h_data=b"x")

        def bad_history(ctx):
            ctx.insert("history", row)
            ctx.insert("history", dict(row, h_amount=-1))  # out of range

        with pytest.raises(SchemaError):
            fresh_engine.oltp.execute(bad_history)
        assert mvcc_state(mvcc) == before
        later = fresh_engine.db.oracle.next_timestamp()
        with pytest.raises(TransactionError, match="out of range"):
            mvcc.read(before[0], later)

    def test_failed_duplicate_insert_keeps_the_owners_key(self, fresh_engine):
        """The insert's journal entry exists, but its key is another row's:
        undoing it must not drop that row's key."""
        index = fresh_engine.table("neworder").index
        before = dict(index.items())

        def duplicate(ctx):
            ctx.insert("neworder", ctx.read("neworder", 0))

        with pytest.raises(TransactionError, match="duplicate key"):
            fresh_engine.oltp.execute(duplicate)
        assert index.probe(1) == 0
        assert dict(index.items()) == before

    def test_aborted_insert_then_delete_leaves_the_index(self, fresh_engine):
        index = fresh_engine.table("neworder").index
        before = dict(index.items())

        def insert_and_delete(ctx):
            row = ctx.insert("neworder", dict(ctx.read("neworder", 0), no_o_id=90_000))
            ctx.delete("neworder", row)
            ctx.abort()

        assert fresh_engine.oltp.execute(insert_and_delete).aborted
        assert dict(index.items()) == before

    @pytest.mark.parametrize("removal_fails", [False, True])
    def test_aborted_delete_restores_the_key_once(self, fresh_engine, monkeypatch, removal_fails):
        """Whether or not the delete got as far as removing its key, the
        abort leaves the key mapping to the row exactly once."""
        index = fresh_engine.table("neworder").index
        before = dict(index.items())
        if removal_fails:
            def remove(key):
                raise TransactionError("index removal failed")

            monkeypatch.setattr(index, "remove", remove)

        def delete(ctx):
            ctx.delete("neworder", 0)
            ctx.abort()

        if removal_fails:
            with pytest.raises(TransactionError, match="index removal failed"):
                fresh_engine.oltp.execute(delete)
        else:
            assert fresh_engine.oltp.execute(delete).aborted
        assert index.probe(1) == 0
        assert dict(index.items()) == before


def failing_txn(engine, body):
    """Run ``body(ctx)``, which must raise a plain :class:`TransactionError`;
    returns its message and the transaction's ts."""
    seen = []

    def txn(ctx):
        seen.append(ctx.ts)
        body(ctx)

    with pytest.raises(TransactionError) as err:
        engine.oltp.execute(txn)
    assert type(err.value) is TransactionError
    return str(err.value), seen[0]


class TestWriteErrorsNameTableAndTs:
    """A :class:`TransactionError` of an MVCC write or rollback surfaces as
    the same type, prefixed with the table and naming the ts (a rollback
    under a newer tail: ``test_txn_rollback_names_the_table``). An index
    miss names its index and the ts."""

    def test_already_deleted(self, fresh_engine):
        def delete_twice(ctx):
            ctx.delete("neworder", 4)
            ctx.delete("neworder", 4)

        message, ts = failing_txn(fresh_engine, delete_twice)
        assert message == f"table 'neworder': row 4 already deleted (ts {ts})"
        assert fresh_engine.table("neworder").index.probe(5) == 4

    def test_table_full(self, fresh_engine):
        def fill(ctx):
            row = ctx.read("warehouse", 0)
            for w_id in itertools.count(2):
                ctx.insert("warehouse", dict(row, w_id=w_id))

        message, ts = failing_txn(fresh_engine, fill)
        assert message == f"table 'warehouse': table full: capacity 256 rows reached (ts {ts})"
        warehouse = fresh_engine.table("warehouse")
        assert warehouse.num_rows == 1 and len(warehouse.index) == 1

    def test_missing_key(self, fresh_engine):
        message, ts = failing_txn(
            fresh_engine, lambda ctx: ctx.index_lookup("stock_pk", (1, 10**6))
        )
        assert message == f"index 'stock_pk': key (1, 1000000) not found (ts {ts})"


class TestUndoValidation:
    """``rollback(ts)``: it pops exactly the journal tail stamped ``ts``."""

    def test_undo_update_requires_versions(self, fresh_engine):
        mvcc = fresh_engine.table("customer").mvcc
        mvcc.update(0, ts=1000)
        before = mvcc_state(mvcc)
        mvcc.rollback(1001)  # a later transaction that wrote no version here
        assert mvcc_state(mvcc) == before
        assert mvcc.chain_length(0) == 2

    def test_undo_insert_must_be_last(self, fresh_engine):
        mvcc = fresh_engine.table("history").mvcc
        mvcc.insert(ts=1000)
        mvcc.insert(ts=1001)
        with pytest.raises(TransactionError, match="1000.*newer ts 1001"):
            mvcc.rollback(1000)

    def test_undo_order_enforced_by_log(self, fresh_engine):
        mvcc = fresh_engine.table("customer").mvcc
        before = mvcc_state(mvcc)
        mvcc.update(0, ts=1000)
        mvcc.update(1, ts=1001)
        mvcc.update(1, ts=1001)  # same transaction: one version
        with pytest.raises(TransactionError, match="journal tail"):
            mvcc.rollback(1000)
        mvcc.rollback(1001)
        assert mvcc.chain_length(1) == 1 and mvcc.chain_length(0) == 2
        mvcc.rollback(1000)
        assert mvcc_state(mvcc) == before

    def test_rollback_returns_the_undone_entries(self, fresh_engine):
        from repro.mvcc.manager import DELETE, INSERT, UPDATE

        mvcc = fresh_engine.table("neworder").mvcc
        row = mvcc.insert(ts=1000)
        mvcc.update(row, ts=1000)  # the insert's own version: no entry
        mvcc.update(3, ts=1000)
        mvcc.delete(row, ts=1000)
        assert mvcc.rollback(1000) == [(DELETE, row), (UPDATE, 3), (INSERT, row)]
        assert mvcc.rollback(1000) == []

    def test_txn_rollback_names_the_table(self, fresh_engine):
        """A newer journal tail under an aborting transaction is a
        broken single-writer assumption: it raises, naming the table and
        the ts."""

        def interleaved(ctx):
            ctx.update("customer", 0, {"c_balance": 1})
            ctx.engine.db.table("customer").mvcc.update(1, ctx.ts + 1)
            ctx.abort()

        message, ts = failing_txn(fresh_engine, interleaved)
        assert message == (
            f"table 'customer': rollback of ts {ts}: the journal tail holds "
            f"newer ts {ts + 1} (ts {ts})"
        )


class TestDelivery:
    def run_mixed_with_deliveries(self, engine, count=60):
        driver = engine.make_driver(seed=7)
        driver.delivery_fraction = 0.25
        for _ in range(count):
            engine.execute_transaction(driver.next_transaction())
        return driver

    def test_delivery_tombstones_neworders(self, fresh_engine):
        engine = fresh_engine
        self.run_mixed_with_deliveries(engine)
        tombstoned = engine.table("neworder").mvcc.tombstoned_rows()
        assert tombstoned

    def test_delivery_updates_orderlines_and_customer(self, fresh_engine):
        engine = fresh_engine
        driver = engine.make_driver(seed=8)
        no_params = driver.next_new_order()
        engine.execute_transaction(new_order(no_params))
        d_params = driver.next_delivery()
        assert d_params is not None
        ts0 = engine.db.oracle.read_timestamp()
        c_row = engine.db.index("customer_pk").probe(
            (no_params.w_id, no_params.d_id, no_params.c_id)
        )
        before = engine.table("customer").read_row(c_row, ts0)
        engine.execute_transaction(delivery(d_params))
        ts = engine.db.oracle.read_timestamp()
        after = engine.table("customer").read_row(c_row, ts)
        assert after["c_delivery_cnt"] == before["c_delivery_cnt"] + len(d_params.orders)
        ol_row = engine.db.index("orderline_pk").probe((no_params.o_id, 1))
        line = engine.table("orderline").read_row(ol_row, ts)
        assert line["ol_delivery_d"] == d_params.delivery_d

    def test_deleted_rows_survive_defrag(self, fresh_engine):
        """Tombstones must stay invisible across defragmentation."""
        engine = fresh_engine
        self.run_mixed_with_deliveries(engine)
        no = engine.table("neworder")
        tombstoned = set(no.mvcc.tombstoned_rows())
        engine.defragment()
        visible = no.snapshots.visible_data_rows()
        assert not any(visible[row] for row in tombstoned)

    def test_next_delivery_empty(self, fresh_engine):
        driver = fresh_engine.make_driver(seed=9)
        assert driver.next_delivery() is None

    def test_bad_mix_fractions(self, fresh_engine):
        from repro.oltp.tpcc import TPCCDriver

        counts = {name: t.num_rows for name, t in fresh_engine.db.tables.items()}
        with pytest.raises(TransactionError):
            TPCCDriver(counts, payment_fraction=0.8, delivery_fraction=0.3)
