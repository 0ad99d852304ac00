"""OLTP: hash index, format models, the cost engine, TPC-C transactions."""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import dimm_system
from repro.core.engine import PushTapEngine
from repro.errors import SchemaError, TransactionError
from repro.oltp.engine import TxnBreakdown
from repro.oltp.formats import ColumnStoreModel, RowStoreModel, UnifiedFormatModel
from repro.oltp.index import HashIndex
from repro.oltp.tpcc import NewOrderParams, TPCCDriver, new_order, payment
from repro.format.bandwidth import cpu_lines_per_row
from repro.format.binpack import compact_aligned_layout
from repro.pim.device import Device
from repro.pim.memory import Rank
from repro.telemetry import registry as telemetry
from repro.workloads.chbench import ch_schema, row_counts

GEOM = dimm_system().geometry


class TestHashIndex:
    def test_insert_probe(self):
        idx = HashIndex("t")
        idx.insert(("a", 1), 42)
        assert idx.probe(("a", 1)) == 42

    def test_miss(self):
        idx = HashIndex("t")
        assert idx.probe("missing") is None

    def test_duplicate_rejected(self):
        idx = HashIndex("t")
        idx.insert("k", 1)
        with pytest.raises(TransactionError):
            idx.insert("k", 2)

    def test_remove(self):
        idx = HashIndex("t")
        idx.insert("k", 1)
        idx.remove("k")
        assert idx.probe("k") is None
        with pytest.raises(TransactionError):
            idx.remove("k")

    def test_len_and_keys(self):
        idx = HashIndex("t")
        idx.insert("a", 1)
        idx.insert("b", 2)
        assert len(idx) == 2
        assert dict(idx.items()) == {"a": 1, "b": 2}

    @staticmethod
    def state(idx):
        return list(idx.items()), len(idx)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(-50, 50),
                st.tuples(st.integers(-4, 4), st.integers(1, 10)),
            ),
            unique=True,
            max_size=40,
        ),
        st.integers(0, 40),
    )
    @example(keys=[-1, -2, (-1, 3), 5], split=1)
    def test_insert_many_equals_the_insert_loop(self, keys, split):
        """Same map order and probes as per-key inserts, on an index
        that already holds some keys."""
        loop, bulk = HashIndex("t"), HashIndex("t")
        for row_id, key in enumerate(keys):
            loop.insert(key, row_id)
        head, tail = keys[:split], keys[split:]
        bulk.insert_many(head, range(len(head)))
        bulk.insert_many(tail, range(len(head), len(keys)))
        assert self.state(bulk) == self.state(loop)
        for key in keys:
            assert bulk.probe(key) == loop.probe(key)

    @pytest.mark.parametrize(
        "batch, duplicate",
        [([7, 8, 9, 8], 8), ([7, (1, 2), 9], (1, 2)), ([5, 6, 5, 6], 5)],
        ids=["inside the batch", "against an existing key", "names the first"],
    )
    def test_insert_many_is_all_or_nothing(self, batch, duplicate):
        idx = HashIndex("t")
        idx.insert((1, 2), 0)
        before = self.state(idx)
        with pytest.raises(TransactionError) as bulk_error:
            idx.insert_many(batch, range(10, 10 + len(batch)))
        assert self.state(idx) == before
        with pytest.raises(TransactionError) as loop_error:
            for key in batch:
                idx.insert(key, 99)
        assert str(bulk_error.value) == str(loop_error.value)
        assert repr(duplicate) in str(bulk_error.value)


class TestFormatModels:
    def setup_method(self):
        self.schemas = ch_schema()

    def test_rowstore_row_span(self):
        model = RowStoreModel(self.schemas, GEOM)
        lines = model.lines_for_row("customer")
        assert lines == -(-self.schemas["customer"].row_bytes // 64)
        # Partial access still fetches the row span.
        assert model.lines_for_row("customer", ["c_balance"]) == lines
        assert model.relayout_bytes("customer") == 0

    def test_columnstore_per_column_lines(self):
        model = ColumnStoreModel(self.schemas, GEOM)
        assert model.lines_for_row("customer", ["c_balance", "c_id"]) == 2
        assert model.lines_for_row("customer") == len(self.schemas["customer"].columns)

    def test_columnstore_full_row_expensive(self):
        """§7.3.1: CS must gather every column to reconstruct a row."""
        rs = RowStoreModel(self.schemas, GEOM)
        cs = ColumnStoreModel(self.schemas, GEOM)
        assert cs.lines_for_row("customer") > rs.lines_for_row("customer")

    def test_unified_lines_close_to_rowstore(self):
        layouts = {
            name: compact_aligned_layout(schema, [], 8, 0.6)
            for name, schema in self.schemas.items()
        }
        unified = UnifiedFormatModel(layouts, GEOM)
        rs = RowStoreModel(self.schemas, GEOM)
        for table in ("customer", "orderline", "stock"):
            assert unified.lines_for_row(table) <= 2 * rs.lines_for_row(table)

    def test_unified_partial_access_touches_fewer_parts(self):
        layouts = {
            "customer": compact_aligned_layout(
                self.schemas["customer"], ["c_id", "c_balance"], 8, 1.0
            )
        }
        unified = UnifiedFormatModel(layouts, GEOM)
        assert unified.lines_for_row("customer", ["c_id"]) <= unified.lines_for_row(
            "customer"
        )

    def test_unified_whole_row_is_the_cpu_bandwidth_line_count(self):
        """A whole-row access touches every part: the same line count the
        CPU effective-bandwidth model charges, however it is asked."""
        for th in (0.0, 0.6, 1.0):
            layout = compact_aligned_layout(self.schemas["customer"], ["c_id", "c_balance"], 8, th)
            unified = UnifiedFormatModel({"customer": layout}, GEOM)
            lines = cpu_lines_per_row(layout, GEOM)
            assert unified.lines_for_row("customer") == lines
            assert unified.lines_for_row("customer", self.schemas["customer"].column_names) == lines

    def test_unified_relayout_bytes(self):
        layouts = {
            "customer": compact_aligned_layout(self.schemas["customer"], [], 8, 0.6)
        }
        unified = UnifiedFormatModel(layouts, GEOM)
        assert unified.relayout_bytes("customer") == self.schemas["customer"].row_bytes
        assert unified.relayout_bytes("customer", ["c_id", "c_id"]) == 4

    def test_unknown_table(self):
        model = RowStoreModel(self.schemas, GEOM)
        with pytest.raises(SchemaError):
            model.lines_for_row("nope")


class TestAccessChargeMemo:
    """Each access charge is one lookup in a memo tied to the format model."""

    @staticmethod
    def breakdowns(swap_after):
        """The second 15 transactions' breakdowns on an engine switched to
        the row-store model after ``swap_after`` transactions (None: never)."""
        engine = PushTapEngine.build(scale=2e-5, defrag_period=200, block_rows=256)
        driver = engine.make_driver(seed=3)
        for done in range(30):
            if done == swap_after:
                engine.oltp.format_model = RowStoreModel(ch_schema(), GEOM)
            result = engine.execute_transaction(driver.next_transaction())
            if done >= 15:
                yield result.breakdown

    def test_a_swapped_model_charges_like_a_fresh_engine_under_it(self):
        swapped = list(self.breakdowns(swap_after=15))
        assert swapped == list(self.breakdowns(swap_after=0))
        assert swapped != list(self.breakdowns(swap_after=None))

    def test_each_charge_is_the_models_product(self, fresh_engine):
        oltp = fresh_engine.oltp
        fresh_engine.run_transactions(10)
        assert oltp.access_charges
        for (table, columns), charge in oltp.access_charges.items():
            lines = oltp.format_model.lines_for_row(table, columns)
            relayout = oltp.format_model.relayout_bytes(table, columns)
            assert charge == (
                lines, lines * oltp.line_ns, relayout * oltp.cost.relayout_per_byte_ns
            )


def test_transactions_make_no_per_run_device_writes(fresh_engine, monkeypatch):
    """The transaction path stores through the storage plans as slices of
    the rank matrix: a TPC-C stream never reaches ``Rank.device_write`` or
    ``Device.write``."""
    calls = []
    monkeypatch.setattr(Rank, "device_write", lambda *args: calls.append(args))
    monkeypatch.setattr(Device, "write", lambda *args: calls.append(args))
    results = fresh_engine.run_transactions(
        120, fresh_engine.make_driver(seed=5, delivery_fraction=0.1)
    )
    assert sum(r.rows_written for r in results) > 500
    assert calls == []


class TestTxnBreakdown:
    def test_total_and_merge(self):
        a = TxnBreakdown(index=1, alloc=2, compute=3, chain=4, memory=5, relayout=6, flush=7)
        assert a.total == 28
        merged = a.merge(a)
        assert merged.total == 56
        assert set(a.as_dict()) == {
            "index", "alloc", "compute", "chain", "memory", "relayout", "flush"
        }


class TestTransactionsFunctional:
    def test_observing_changes_no_result(self):
        """The telemetry ``roofline`` flag changes what is observed, not
        what is simulated: a transaction history returns the same results
        with it on as with telemetry off."""

        def history(observe):
            engine = PushTapEngine.build(scale=2e-5, seed=7)
            registry = telemetry.MetricsRegistry()
            registry.roofline = True
            if observe:
                telemetry.enable(registry)
            try:
                driver = engine.make_driver(seed=8, delivery_fraction=0.1)
                return engine.run_transactions(60, driver), registry
            finally:
                telemetry.disable()

        observed, registry = history(True)
        assert registry.counters["oltp.txn.committed"].value > 0
        assert observed == history(False)[0]

    def test_payment_updates_balances(self, fresh_engine):
        engine = fresh_engine
        driver = engine.make_driver(seed=1)
        params = driver.next_payment()
        c_row = engine.db.index("customer_pk").probe((params.w_id, params.d_id, params.c_id))
        ts = engine.db.oracle.read_timestamp()
        before = engine.table("customer").read_row(c_row, ts)
        history_before = engine.table("history").num_rows
        engine.execute_transaction(payment(params))
        ts = engine.db.oracle.read_timestamp()
        after = engine.table("customer").read_row(c_row, ts)
        assert after["c_ytd_payment"] == before["c_ytd_payment"] + params.amount
        assert after["c_payment_cnt"] == before["c_payment_cnt"] + 1
        assert engine.table("history").num_rows == history_before + 1

    def test_no_lost_update(self, fresh_engine):
        """Two payments read-modify-write one customer, district and
        warehouse: transactions run serially, so the second reads the
        first's committed write and both increments land."""
        engine = fresh_engine
        first = engine.make_driver(seed=1).next_payment()
        second = dataclasses.replace(first, amount=first.amount + 7)
        rows = {
            "customer": engine.db.index("customer_pk").probe(
                (first.customer_w_id, first.customer_d_id, first.c_id)
            ),
            "district": engine.db.index("district_pk").probe((first.w_id, first.d_id)),
            "warehouse": engine.db.index("warehouse_pk").probe(first.w_id),
        }
        columns = {"customer": "c_ytd_payment", "district": "d_ytd", "warehouse": "w_ytd"}

        def totals():
            ts = engine.db.oracle.read_timestamp()
            return {t: engine.table(t).read_row(row, ts)[columns[t]] for t, row in rows.items()}

        before = totals()
        for params in (first, second):
            assert not engine.execute_transaction(payment(params)).aborted
        paid = first.amount + second.amount
        assert totals() == {t: value + paid for t, value in before.items()}

    def test_reads_at_a_timestamp_repeat(self, fresh_engine):
        """A reader at ``ts`` reads the same version before and after a
        later transaction commits a change to the row: no non-repeatable
        read."""
        engine = fresh_engine
        params = engine.make_driver(seed=1).next_payment()
        c_row = engine.db.index("customer_pk").probe((params.w_id, params.d_id, params.c_id))
        customer = engine.table("customer")
        ts = engine.db.oracle.read_timestamp()
        first = customer.read_row(c_row, ts)
        engine.execute_transaction(payment(params))
        assert customer.read_row(c_row, ts) == first
        assert customer.read_row(c_row, engine.db.oracle.read_timestamp()) != first

    def test_new_order_inserts_rows(self, fresh_engine):
        engine = fresh_engine
        driver = engine.make_driver(seed=2)
        params = driver.next_new_order()
        ol_before = engine.table("orderline").num_rows
        engine.execute_transaction(new_order(params))
        assert engine.table("orderline").num_rows == ol_before + len(params.item_ids)
        row_id = engine.db.index("order_pk").probe(params.o_id)
        ts = engine.db.oracle.read_timestamp()
        order = engine.table("order").read_row(row_id, ts)
        assert order["o_c_id"] == params.c_id
        assert order["o_ol_cnt"] == len(params.item_ids)

    def test_new_order_decrements_stock(self, fresh_engine):
        engine = fresh_engine
        driver = engine.make_driver(seed=3)
        params = driver.next_new_order()
        s_row = engine.db.index("stock_pk").probe((params.supply_w_ids[0], params.item_ids[0]))
        ts = engine.db.oracle.read_timestamp()
        before = engine.table("stock").read_row(s_row, ts)
        engine.execute_transaction(new_order(params))
        ts = engine.db.oracle.read_timestamp()
        after = engine.table("stock").read_row(s_row, ts)
        assert after["s_order_cnt"] == before["s_order_cnt"] + 1
        assert after["s_ytd"] == before["s_ytd"] + params.quantities[0]

    def test_breakdown_accumulates(self, fresh_engine):
        engine = fresh_engine
        result = engine.execute_transaction(payment(engine.make_driver().next_payment()))
        b = result.breakdown
        assert b.index > 0 and b.alloc > 0 and b.compute > 0
        assert b.memory > 0 and b.flush > 0 and b.relayout > 0
        assert result.total_time == b.total
        assert result.rows_written >= 4

    def test_chain_charge_is_each_rows_length_before_the_access(self, fresh_engine):
        """A read, two updates of one row at one timestamp and a delete
        each charge the chain length the row had *before* the call — the
        second update sees the first's install, the same-ts overwrite
        adds no version — in the order the calls ran."""
        engine = fresh_engine
        customer = engine.table("customer").mvcc
        neworder = engine.table("neworder").mvcc
        assert neworder.num_rows > 0
        engine.oltp.execute(lambda ctx: ctx.update("customer", 0, {"c_balance": 7}))
        lengths = []

        def txn(ctx):
            lengths.append(customer.chain_length(0))
            ctx.read("customer", 0, ["c_balance"])
            lengths.append(customer.chain_length(0))
            ctx.update("customer", 0, {"c_balance": 8})
            lengths.append(customer.chain_length(0))
            ctx.update("customer", 0, {"c_balance": 9})
            lengths.append(neworder.chain_length(0))
            ctx.delete("neworder", 0)

        result = engine.oltp.execute(txn)
        assert lengths == [2, 2, 3, 1]
        assert customer.chain_length(0) == 3
        expected = 0.0
        for length in lengths:
            expected += length * engine.oltp.cost.chain_entry_ns
        assert result.breakdown.chain == expected

    def test_chain_time_negligible(self, worked_engine):
        """§7.4: version-chain traversal is a tiny share of transaction
        time (< 0.1 % at paper scale; chains are relatively longer at the
        reduced test scale, so the bound here is looser)."""
        b = worked_engine.oltp.breakdown
        assert b.chain / b.total < 0.02


class TestDriver:
    def test_deterministic(self):
        counts = row_counts(2e-5)
        a = TPCCDriver(counts, seed=9)
        b = TPCCDriver(counts, seed=9)
        assert a.next_payment() == b.next_payment()

    def test_mix_fraction(self):
        counts = row_counts(2e-5)
        driver = TPCCDriver(counts, seed=1, payment_fraction=1.0)
        txn = driver.next_transaction()
        assert txn is not None
        with pytest.raises(TransactionError):
            TPCCDriver(counts, payment_fraction=1.5)

    def test_new_order_param_consistency(self):
        counts = row_counts(2e-5)
        driver = TPCCDriver(counts, seed=4)
        params = driver.next_new_order()
        assert isinstance(params, NewOrderParams)
        assert len(params.item_ids) == len(set(params.item_ids))
        for i_id, s_w in zip(params.item_ids, params.supply_w_ids):
            assert s_w == (i_id - 1) % counts["warehouse"] + 1

    def test_order_ids_unique(self):
        counts = row_counts(2e-5)
        driver = TPCCDriver(counts, seed=5)
        ids = {driver.next_new_order().o_id for _ in range(20)}
        assert len(ids) == 20

    def test_mismatched_new_order_rejected(self):
        with pytest.raises(TransactionError):
            new_order(
                NewOrderParams(1, 1, 1, 99, 0, item_ids=[1, 2], supply_w_ids=[1], quantities=[1, 1])
            )


class TestOrderIds:
    def test_o_id_is_unique_across_districts(self):
        """Q4 and Q12 join ORDER to ORDERLINE on ``o_id`` alone, which is
        right only while no two (warehouse, district) pairs share an
        ``o_id``: the generator and New-Order must keep it global."""
        from tests.test_scale_ladder import TXN_MIX

        engine = PushTapEngine.build(scale=1e-4, seed=7)
        orders = engine.table("order")
        generated = orders.num_rows
        engine.run_transactions(300, engine.make_driver(seed=8, **TXN_MIX))
        ts = engine.db.oracle.read_timestamp()
        rows = [orders.read_row(rid, ts, ["o_w_id", "o_d_id", "o_id"])
                for rid in range(orders.num_rows)]
        assert len(rows) > generated  # New-Order inserted some
        assert len({(r["o_w_id"], r["o_d_id"]) for r in rows}) > 1
        assert len({r["o_id"] for r in rows}) == len(rows)
