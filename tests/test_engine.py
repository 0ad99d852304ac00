"""End-to-end engine integration: HTAP over the simulated PIM rank."""

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
        key inserted or bucketed and no row stored one at a time; each
        indexed table is bulk-loaded by one ``insert_many``."""
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
        monkeypatch.setattr(HashIndex, "_bucket", per_value)
        monkeypatch.setattr(HashIndex, "insert_many", counted)
        monkeypatch.setattr(TableStorage, "write_row", per_value)
        engine = PushTapEngine.build(scale=2e-5, block_rows=256)
        assert len(engine.db.index("orderline_pk")) == 1200
        assert sorted(bulk_loads) == sorted(name for name, _ in _INDEX_KEYS.values())

    def test_row_filter_sees_column_blocks_and_sizes_the_engine(self):
        import numpy as np

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
        assert engine.db.index("item_pk").probe(399)[0] == 199
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


class TestMultiRank:
    """The third access dimension (§1): scaling across ranks."""

    @pytest.fixture(scope="class")
    def multirank_engine(self):
        from repro.core.engine import PushTapEngine

        engine = PushTapEngine.build(
            scale=2e-5, defrag_period=200, block_rows=256, ranks=4
        )
        engine.run_transactions(40, engine.make_driver(seed=6))
        return engine

    def test_tables_spread_over_ranks(self, multirank_engine):
        assignment = {t.rank_index for t in multirank_engine.db.tables.values()}
        assert len(assignment) > 1
        assert len(multirank_engine.ranks) == 4
        assert multirank_engine.num_units == 4 * 64

    def test_tables_scan_their_own_rank(self, multirank_engine):
        for runtime in multirank_engine.db.tables.values():
            any_unit = next(iter(runtime.units.values()))
            assert any_unit.bank.device is runtime.storage.rank.devices[
                any_unit.bank.device.index
            ]

    def test_queries_correct_across_ranks(self, multirank_engine):
        """Q9 joins ITEM and ORDERLINE even when they live in different
        ranks (the bucket exchange rides the CPU, §6.3)."""
        engine = multirank_engine
        result = engine.query("Q9")
        ts = engine.db.oracle.read_timestamp()
        item = engine.table("item")
        small = {
            item.read_row(r, ts)["i_id"]
            for r in range(item.num_rows)
            if item.read_row(r, ts)["i_im_id"] <= 5000
        }
        orderline = engine.table("orderline")
        reference = sum(
            orderline.read_row(r, ts)["ol_amount"]
            for r in range(orderline.num_rows)
            if orderline.read_row(r, ts)["ol_i_id"] in small
        )
        assert result.rows["revenue"] == reference

    def test_defrag_works_per_rank(self, multirank_engine):
        before = multirank_engine.query("Q6").rows
        multirank_engine.defragment()
        assert multirank_engine.query("Q6").rows == before

    def test_invalid_rank_count(self):
        from repro.core.engine import PushTapEngine
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            PushTapEngine.build(scale=1e-5, ranks=0, block_rows=256)


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
        assert mvcc.log_length == 0
        assert not mvcc.alive_at(-1)[sorted(pending)].any()  # all folded dead
        # The folded deletions stay observable after the log was cleared.
        row = next(iter(pending))
        ts = engine.db.oracle.read_timestamp()
        with pytest.raises(TransactionError, match="deleted"):
            mvcc.read(row, ts)
        assert pending <= set(mvcc.tombstoned_rows())
        assert InvariantChecker(engine, raise_on_violation=False).check() == []
