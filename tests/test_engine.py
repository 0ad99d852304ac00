"""End-to-end engine integration: HTAP over the simulated PIM rank."""

import numpy as np
import pytest

from repro.core.config import hbm_system
from repro.core.defrag import Strategy
from repro.core.engine import PushTapEngine
from repro.errors import ConfigError
from repro.pim.controller import OriginalController, PushTapController


class TestBuild:
    def test_tables_loaded(self, loaded_engine):
        assert set(loaded_engine.db.tables) == {
            "warehouse", "district", "customer", "history", "neworder",
            "order", "orderline", "item", "stock",
        }
        assert loaded_engine.table("orderline").num_rows == 1200
        assert loaded_engine.num_units == 64

    def test_layouts_cover_all_tables(self, loaded_engine):
        for name, layout in loaded_engine.layouts.items():
            schema = loaded_engine.table(name).schema
            assert layout.useful_bytes_per_row() == schema.row_bytes

    def test_indexes_populated(self, loaded_engine):
        assert len(loaded_engine.db.index("item_pk")) == 400
        assert len(loaded_engine.db.index("customer_pk")) == 120

    def test_initial_data_readable(self, loaded_engine):
        ts = loaded_engine.db.oracle.read_timestamp()
        row = loaded_engine.table("item").read_row(0, ts)
        assert row["i_id"] == 1

    def test_build_has_no_per_value_path(self, monkeypatch):
        """Set-up is column blocks end to end: no value is encoded, no
        key inserted and no row stored one at a time; each indexed table
        is bulk-loaded by one ``insert_many``."""
        from repro.core.engine import _INDEX_KEYS
        from repro.core.storage import TableStorage
        from repro.format.schema import Column
        from repro.oltp.index import HashIndex

        def per_value(*args, **kwargs):
            raise AssertionError("per-value call under PushTapEngine.build")

        bulk_loads = []
        insert_many = HashIndex.insert_many

        def counted(index, keys, row_ids):
            bulk_loads.append(index.name)
            insert_many(index, keys, row_ids)

        monkeypatch.setattr(Column, "encode", per_value)
        monkeypatch.setattr(HashIndex, "insert", per_value)
        monkeypatch.setattr(HashIndex, "insert_many", counted)
        monkeypatch.setattr(TableStorage, "write_row", per_value)
        engine = PushTapEngine.build(scale=2e-5, block_rows=256)
        assert len(engine.db.index("orderline_pk")) == 1200
        assert sorted(bulk_loads) == sorted(name for name, _ in _INDEX_KEYS.values())

    def test_row_filter_sees_column_blocks_and_sizes_the_engine(self):
        seen = []

        def odd_items(table, columns):
            seen.append((table, len(columns["i_id"]), sorted(columns)))
            return columns["i_id"] % 2 == 1

        engine = PushTapEngine.build(
            scale=2e-5, tables=["item"], block_rows=256, row_filter=odd_items
        )
        assert seen == [("item", 256, ["i_data", "i_id", "i_im_id", "i_name", "i_price"]),
                        ("item", 144, ["i_data", "i_id", "i_im_id", "i_name", "i_price"])]
        table = engine.table("item")
        assert table.num_rows == 200
        ts = engine.db.oracle.read_timestamp()
        whole = PushTapEngine.build(scale=2e-5, tables=["item"], block_rows=256)
        for row_id in (0, 127, 128, 199):
            assert table.read_row(row_id, ts) == whole.table("item").read_row(2 * row_id, ts)
        assert engine.db.index("item_pk").probe(399) == 199
        unfiltered = PushTapEngine.build(
            scale=2e-5, tables=["item"], block_rows=256, row_filter=lambda t, c: None
        )
        assert np.array_equal(unfiltered.rank.mem, whole.rank.mem)

    def test_controller_kinds(self):
        pushtap = PushTapEngine.build(scale=1e-5, tables=["item"], block_rows=256)
        assert isinstance(pushtap.controller, PushTapController)
        original = PushTapEngine.build(
            scale=1e-5, tables=["item"], block_rows=256, controller_kind="original"
        )
        assert isinstance(original.controller, OriginalController)
        with pytest.raises(ConfigError):
            PushTapEngine.build(
                scale=1e-5, tables=["item"], block_rows=256, controller_kind="quantum"
            )

    def test_hbm_build(self):
        engine = PushTapEngine.build(
            config=hbm_system(), scale=1e-5, tables=["item"], block_rows=256
        )
        assert engine.config.memory_kind == "hbm"
        ts = engine.db.oracle.read_timestamp()
        assert engine.table("item").read_row(0, ts)["i_id"] == 1

    def test_th_parameter_changes_layout(self):
        low = PushTapEngine.build(scale=1e-5, tables=["orderline"], th=0.0, block_rows=256)
        high = PushTapEngine.build(scale=1e-5, tables=["orderline"], th=1.0, block_rows=256)
        assert (
            low.layouts["orderline"].num_parts <= high.layouts["orderline"].num_parts
        )

    def test_the_two_builders_agree(self):
        """``build_custom`` over the CH tables, given ``build``'s key
        columns, indexes and generated rows, loads the same engine: the
        same device image, row counts and index entries."""
        from repro.core.engine import _INDEX_KEYS
        from repro.workloads.chbench import all_queries, ch_schema, key_columns_for, row_counts
        from repro.workloads.tpcc_gen import generate_table

        def as_rows(block):
            n = len(next(iter(block.values())))
            return [
                {c: v[i].tobytes() if v.ndim == 2 else int(v[i]) for c, v in block.items()}
                for i in range(n)
            ]

        schemas = ch_schema()
        counts = row_counts(2e-5)
        custom = PushTapEngine.build_custom(
            schemas,
            {name: key_columns_for(all_queries(), name) for name in schemas},
            {
                name: [row for block in generate_table(name, counts, 7, 256) for row in as_rows(block)]
                for name in schemas
            },
            index_keys=_INDEX_KEYS,
            block_rows=256,
        )
        built = PushTapEngine.build(scale=2e-5, seed=7, block_rows=256)
        assert np.array_equal(custom.rank.mem, built.rank.mem)
        assert custom.table_counts() == built.table_counts()
        for name, table in built.db.tables.items():
            other = custom.table(name).index
            if table.index is None:
                assert other is None
            else:
                assert dict(other.items()) == dict(table.index.items())


class TestBuildBoundary:
    """A bad build input raises ``ConfigError`` before anything is
    generated or allocated."""

    @pytest.fixture(autouse=True)
    def nothing_built(self, monkeypatch):
        import repro.core.engine as engine_module

        def built(*args, **kwargs):
            raise AssertionError("generated or allocated before the input check")

        for name in ("generate_table", "_column_arrays", "Rank"):
            monkeypatch.setattr(engine_module, name, built)

    @pytest.mark.parametrize(
        "kwargs, text",
        [
            ({"counts": {"warehouse": 1}}, "counts lacks tables ['district', 'customer', "),
            ({"tables": ["item", "ghost"]}, "tables names unknown tables ['ghost']"),
            ({"extra_rows": -5}, "extra_rows must be >= 0, got -5"),
            ({"defrag_period": -1}, "defrag_period must be >= 0"),
        ],
        ids=["counts lack a table", "unknown table", "extra_rows", "defrag_period"],
    )
    def test_build_rejects(self, kwargs, text):
        with pytest.raises(ConfigError) as err:
            PushTapEngine.build(scale=2e-5, block_rows=256, **kwargs)
        assert text in str(err.value)

    @pytest.mark.parametrize("count", [-5, 0, 2.5, None, True])
    def test_build_rejects_a_count_that_is_not_an_int_of_at_least_one(self, count):
        """-5, 0 and 2.5 used to leak ``OverflowError``, ``TransactionError``
        and ``TypeError`` from the loader."""
        from repro.workloads.chbench import row_counts

        counts = dict(row_counts(2e-5), stock=count)
        with pytest.raises(ConfigError) as err:
            PushTapEngine.build(block_rows=256, counts=counts)
        assert str(err.value) == f"counts are not ints >= 1 for tables ['stock: {count!r}']"

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf"), 0.0, -1e-4])
    def test_build_rejects_a_scale_that_is_not_positive_and_finite(self, scale):
        """NaN used to raise a bare ``ValueError`` and inf an ``OverflowError``."""
        with pytest.raises(ConfigError) as err:
            PushTapEngine.build(scale=scale, block_rows=256)
        assert str(err.value) == f"scale must be a positive finite number, got {scale!r}"

    @pytest.mark.parametrize("block_rows", [0, -8, 12])
    def test_block_rows_fails_at_the_boundary(self, block_rows):
        """Both builders refuse a block size that is not a positive
        multiple of 8 with ``TableStorage``'s text (0 used to raise a bare
        ``ValueError`` from ``ceil_div``)."""
        text = f"^block_rows must be a positive multiple of 8, got {block_rows}$"
        with pytest.raises(ConfigError, match=text):
            PushTapEngine.build(scale=2e-5, block_rows=block_rows)
        with pytest.raises(ConfigError, match=text):
            PushTapEngine.build_custom({}, {}, {}, block_rows=block_rows)

    @pytest.mark.parametrize("argument", ["initial_rows", "key_columns"])
    def test_build_custom_rejects_a_table_not_in_schemas(self, argument):
        from repro.format.schema import Column, TableSchema

        inputs = {
            "schemas": {"points": TableSchema.of("points", (Column("k", 4),))},
            "key_columns": {"points": ["k"], "ghost": ["k"]},
            "initial_rows": {"points": [{"k": 1}], "ghost": [{"k": 2}]},
        }
        other = "key_columns" if argument == "initial_rows" else "initial_rows"
        del inputs[other]["ghost"]
        with pytest.raises(
            ConfigError, match=rf"^{argument} names tables not in schemas \['ghost'\]$"
        ):
            PushTapEngine.build_custom(**inputs, block_rows=256)


def test_run_transactions_refuses_a_negative_count(fresh_engine):
    with pytest.raises(ConfigError, match=r"^run_transactions count must be >= 0, got -1$"):
        fresh_engine.run_transactions(-1)
    assert fresh_engine.run_transactions(0) == []
    assert fresh_engine.stats.transactions == 0


def test_defrag_period_zero_runs_no_periodic_defrag():
    engine = PushTapEngine.build(scale=2e-5, block_rows=256, defrag_period=0)
    engine.run_transactions(5)
    assert engine.stats.transactions == 5 and engine.stats.defrag_runs == 0


class TestMixedWorkload:
    def test_txns_then_query_consistent(self, fresh_engine):
        engine = fresh_engine
        engine.run_transactions(30)
        q_before = engine.query("Q6").rows["revenue"]
        results = engine.defragment()
        q_after = engine.query("Q6").rows["revenue"]
        assert q_before == q_after  # defrag must not change query results
        assert engine.stats.defrag_runs >= 1
        assert any(r.moved_rows for r in results.values())

    def test_periodic_defrag_triggers(self):
        engine = PushTapEngine.build(scale=2e-5, defrag_period=20, block_rows=256)
        engine.run_transactions(45)
        assert engine.stats.defrag_runs >= 2

    def test_emergency_defrag_on_delta_pressure(self):
        engine = PushTapEngine.build(
            scale=2e-5, defrag_period=0, block_rows=256, updates_per_txn_estimate=1
        )
        # Drive one table's delta region past the 80 % high-water mark
        # directly; the next transaction must defragment first.
        mvcc = engine.table("orderline").mvcc
        ts = 1
        while not engine.defrag_due():
            mvcc.update(ts % mvcc.num_rows, ts)
            ts += 1
        engine.run_transactions(1)
        assert engine.stats.defrag_runs >= 1
        assert mvcc.delta.allocated_rows == 0

    def test_defrag_strategies_all_work(self, fresh_engine):
        engine = fresh_engine
        engine.run_transactions(25)
        for strategy in (Strategy.CPU, Strategy.PIM, Strategy.HYBRID):
            results = engine.defragment(strategy)
            assert all(r.strategy == strategy for r in results.values())

    def test_stats_accumulate(self, fresh_engine):
        engine = fresh_engine
        engine.run_transactions(10)
        engine.query("Q6")
        assert engine.stats.transactions == 10
        assert engine.stats.queries == 1
        assert engine.stats.oltp_time > 0
        assert engine.stats.olap_time > 0

    def test_mean_txn_time(self, worked_engine):
        assert worked_engine.oltp.mean_txn_time > 0


def _two_table_custom_engine() -> PushTapEngine:
    from repro.format.schema import Column, TableSchema

    return PushTapEngine.build_custom(
        {name: TableSchema.of(name, (Column("k", 4), Column("v", 8))) for name in ("a", "b")},
        {"a": ["v"], "b": ["k"]},
        {"a": [{"k": 1, "v": 2}], "b": [{"k": 3, "v": 4}]},
        block_rows=256,
    )


@pytest.mark.parametrize("builder", ["build", "build_custom"])
def test_one_rank_holds_every_table_and_its_units_run_every_scan(builder, request):
    """Each builder places every table in the engine's one rank, and the
    controller, the OLAP engine and the engine share that rank's units."""
    if builder == "build":
        engine = request.getfixturevalue("loaded_engine")
    else:
        engine = _two_table_custom_engine()
    assert all(t.storage.rank is engine.rank for t in engine.db.tables.values())
    assert engine.olap.units is engine.units
    units = list(engine.units.values())
    assert len(engine.controller.units) == len(units) == engine.num_units
    assert all(a is b for a, b in zip(engine.controller.units, units))


def test_a_rank_for_no_table_is_sized_to_the_floor():
    """With no table to hold, a device is the 512 KiB floor; a rank built
    for two small tables is at least that and a whole number of
    bank-interleaved blocks."""
    engine = PushTapEngine.build(
        scale=2e-5, tables=["warehouse", "district"], block_rows=256
    )
    minimum = PushTapEngine._device_bytes({}, {}, 0, 256, engine.config)
    assert minimum == 512 * 1024
    device_bytes = engine.rank.mem.shape[1]
    assert device_bytes >= minimum
    assert device_bytes % (engine.config.geometry.banks_per_device * 8 * 256) == 0


class TestDeliveryDefragReconciliation:
    """Delivery tombstones survive defragmentation as permanent dead rows."""

    def test_tombstones_fold_into_dead_rows(self, fresh_engine):
        from repro.errors import TransactionError
        from repro.faults.invariants import InvariantChecker

        engine = fresh_engine
        driver = engine.make_driver(
            seed=7, payment_fraction=0.2, delivery_fraction=0.5
        )
        engine.run_transactions(40, driver)
        mvcc = engine.table("neworder").mvcc
        pending = set(mvcc.tombstoned_rows())
        assert pending, "expected deliveries to tombstone neworder rows"
        assert mvcc.alive_at(-1)[sorted(pending)].all()  # none folded yet
        engine.defragment()
        assert mvcc.journal.records == 0
        assert not mvcc.alive_at(-1)[sorted(pending)].any()  # all folded dead
        # The folded deletions stay observable after the log was cleared.
        row = next(iter(pending))
        ts = engine.db.oracle.read_timestamp()
        with pytest.raises(TransactionError, match="deleted"):
            mvcc.read(row, ts)
        assert pending <= set(mvcc.tombstoned_rows())
        assert InvariantChecker(engine, raise_on_violation=False).check() == []
