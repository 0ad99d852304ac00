"""Engines over custom (non-CH) schemas via build_custom — HTAPBench."""

import numpy as np
import pytest

from repro.core.engine import PushTapEngine
from repro.errors import ConfigError
from repro.olap import plan as qplan
from repro.olap.engine import QueryTiming
from repro.olap.predicates import col, evaluate
from repro.workloads.htapbench import htapbench_key_columns, htapbench_schema


def make_rows(seed=3, accounts=400, history=2000):
    rng = np.random.RandomState(seed)
    return {
        "branch": [
            {"b_id": i + 1, "b_balance": 0, "b_region": i % 4,
             "b_name": b"b", "b_address": b"a"}
            for i in range(4)
        ],
        "teller": [
            {"t_id": i + 1, "t_branch_id": i % 4 + 1, "t_balance": 0, "t_name": b"t"}
            for i in range(20)
        ],
        "account": [
            {"a_id": i + 1, "a_branch_id": i % 4 + 1,
             "a_balance": int(rng.randint(0, 10_000)), "a_type": i % 3,
             "a_opened_d": 1000 + i % 500, "a_owner": b"o", "a_notes": b"n"}
            for i in range(accounts)
        ],
        "txn_history": [
            {"x_id": i + 1, "x_a_id": i % accounts + 1, "x_t_id": i % 20 + 1,
             "x_b_id": i % 4 + 1, "x_amount": int(rng.randint(1, 500)),
             "x_time": 1000 + i % 900, "x_kind": i % 4, "x_memo": b"m"}
            for i in range(history)
        ],
    }


@pytest.fixture(scope="module")
def htap_engine():
    schemas = htapbench_schema()
    keys = {name: htapbench_key_columns(name) for name in schemas}
    return PushTapEngine.build_custom(
        schemas,
        keys,
        make_rows(),
        block_rows=256,
        index_keys={"account": ("account_pk", ("a_id",))},
    ), make_rows()


class TestBuildCustom:
    def test_tables_loaded(self, htap_engine):
        engine, rows = htap_engine
        assert engine.table("txn_history").num_rows == len(rows["txn_history"])
        assert engine.table("account").num_rows == len(rows["account"])

    def test_rows_readable(self, htap_engine):
        engine, rows = htap_engine
        ts = engine.db.oracle.read_timestamp()
        got = engine.table("account").read_row(7, ts)
        want = rows["account"][7]
        assert got["a_balance"] == want["a_balance"]

    def test_index_built(self, htap_engine):
        engine, _ = htap_engine
        assert engine.db.index("account_pk").probe(8) == 7

    def test_key_columns_pim_scannable(self, htap_engine):
        engine, _ = htap_engine
        layout = engine.table("txn_history").layout
        assert "x_amount" in layout.key_columns

    def test_filtered_aggregate_matches_reference(self, htap_engine):
        """The HTAPBench H1-style query via PIM operators."""
        engine, rows = htap_engine
        table = engine.table("txn_history")
        ts = engine.db.oracle.read_timestamp()
        table.snapshots.update_to(ts)
        timing = QueryTiming()
        mask = evaluate(
            (col("x_time") >= 1300) & (col("x_kind") == 1),
            engine.olap, table, timing,
        )
        total = engine.olap.aggregate(
            table, "x_amount", qplan.masks_to_indices(mask), 1, timing
        )
        reference = sum(
            r["x_amount"]
            for r in rows["txn_history"]
            if r["x_time"] >= 1300 and r["x_kind"] == 1
        )
        assert int(total[0]) == reference

    def test_mvcc_and_defrag_on_custom_table(self):
        schemas = htapbench_schema()
        keys = {name: htapbench_key_columns(name) for name in schemas}
        engine = PushTapEngine.build_custom(schemas, keys, make_rows(), block_rows=256)
        account = engine.table("account")
        ts = engine.db.oracle.next_timestamp()
        account.update_row(5, ts, {"a_balance": 123_456})
        assert account.read_row(5, ts)["a_balance"] == 123_456
        results = engine.defragment()
        assert results["account"].moved_rows == 1
        ts = engine.db.oracle.read_timestamp()
        assert account.read_row(5, ts)["a_balance"] == 123_456

    def test_index_over_unknown_table_rejected(self):
        schemas = htapbench_schema()
        keys = {name: htapbench_key_columns(name) for name in schemas}
        with pytest.raises(ConfigError):
            PushTapEngine.build_custom(
                schemas, keys, make_rows(), block_rows=256,
                index_keys={"ghost": ("ghost_pk", ("g_id",))},
            )

    @pytest.mark.parametrize(
        "columns", [("a_owner",), ("nope",), ()], ids=["bytes column", "unknown", "none"]
    )
    def test_index_needs_int_key_columns_of_its_table(self, columns):
        schemas = htapbench_schema()
        keys = {name: htapbench_key_columns(name) for name in schemas}
        with pytest.raises(ConfigError, match="'account_pk' on table 'account'"):
            PushTapEngine.build_custom(
                schemas, keys, make_rows(), block_rows=256,
                index_keys={"account": ("account_pk", columns)},
            )

    def test_rows_load_once_as_column_arrays(self, htap_engine):
        """Every initial row reads back as given (bytes NUL-padded), an
        empty table included."""
        engine, rows = htap_engine
        ts = engine.db.oracle.read_timestamp()
        for name, table_rows in rows.items():
            schema = engine.table(name).schema
            for row_id in (0, len(table_rows) // 2, len(table_rows) - 1):
                want = {c.name: c.decode(c.encode(table_rows[row_id][c.name])) for c in schema}
                assert engine.table(name).read_row(row_id, ts) == want
        schemas = htapbench_schema()
        keys = {name: htapbench_key_columns(name) for name in schemas}
        empty = PushTapEngine.build_custom(
            schemas, keys, {"branch": make_rows()["branch"]}, block_rows=256,
            index_keys={"account": ("account_pk", ("a_id",))},
        )
        assert empty.table("account").num_rows == 0
        assert len(empty.db.index("account_pk")) == 0

    @pytest.mark.parametrize(
        "column, bad, text",
        [
            ("a_type", -1, "value -1 out of range for column 'a_type'"),
            ("a_owner", b"x" * 99, "too long for column 'a_owner'"),
            ("a_type", b"x", "column 'a_type' expects int"),
            ("a_owner", 7, "column 'a_owner' expects bytes"),
            ("a_type", None, "missing columns ['a_type']"),
        ],
        ids=["negative", "bytes too long", "bytes for int", "int for bytes", "missing"],
    )
    def test_bad_rows_rejected_in_the_encoder_words(self, column, bad, text):
        """The bulk load and a one-row insert (``write_row``) reject the
        same row in ``Column.encode``'s words; the insert stores nothing."""
        from repro.errors import SchemaError

        rows = make_rows(accounts=40, history=10)
        good = dict(rows["account"][3])
        if bad is None:
            del rows["account"][3][column]
        else:
            rows["account"][3][column] = bad
        schemas = htapbench_schema()
        keys = {name: htapbench_key_columns(name) for name in schemas}
        with pytest.raises(SchemaError) as err:
            PushTapEngine.build_custom(schemas, keys, rows, block_rows=256)
        assert text in str(err.value)
        engine = PushTapEngine.build_custom(
            schemas, keys, make_rows(accounts=40, history=10), block_rows=256
        )
        before = engine.table("account").storage.rank.mem.copy()
        row = dict(rows["account"][3], a_id=500)
        with pytest.raises(SchemaError) as err:
            engine.oltp.execute(lambda ctx: ctx.insert("account", row))
        assert text in str(err.value)
        assert np.array_equal(engine.table("account").storage.rank.mem, before)
        engine.oltp.execute(lambda ctx: ctx.insert("account", dict(good, a_id=500)))

    def test_transactions_keep_the_custom_index(self):
        """Inserts and deletes on a custom table index and unindex its
        rows through the key columns alone; the audit agrees."""
        from repro.faults.invariants import InvariantChecker

        schemas = htapbench_schema()
        keys = {name: htapbench_key_columns(name) for name in schemas}
        engine = PushTapEngine.build_custom(
            schemas, keys, make_rows(accounts=40, history=10), block_rows=256,
            index_keys={"account": ("account_pk", ("a_id",))},
        )
        new = dict(make_rows(accounts=1)["account"][0], a_id=500)

        def open_and_close(ctx):
            ctx.insert("account", new)
            ctx.delete("account", ctx.index_lookup("account_pk", 7))

        engine.oltp.execute(open_and_close)
        index = engine.db.index("account_pk")
        assert index.probe(500) == 40 and index.probe(7) is None
        assert InvariantChecker(engine, raise_on_violation=False).check() == []
