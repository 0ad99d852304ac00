"""Extra coverage: frontier model internals, naive format, runtime helpers."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import dimm_system
from repro.core.database import Database
from repro.errors import SchemaError, TransactionError
from repro.experiments.fig10 import FrontierModel
from repro.format.naive import naive_aligned_layout
from repro.format.schema import Column, TableSchema
from repro.mvcc.timestamps import TimestampOracle


class TestFrontierModelInternals:
    @pytest.fixture(scope="class")
    def model(self):
        return FrontierModel(dimm_system())

    def test_knee_calibration(self, model):
        """query_cpu_bytes is derived so the knee lands at knee_tpmc."""
        knee_rate = model.knee_tpmc / 60.0 / 1e9
        bus_left = model.config.total_cpu_bandwidth - knee_rate * model.txn_bytes
        assert model.query_cpu_bytes == pytest.approx(
            bus_left * model.query_pim_time
        )

    def test_plateau_before_knee(self, model):
        pim_bound = 1.0 / model.query_pim_time
        below_knee = 0.5 * model.knee_tpmc / 60.0 / 1e9
        assert model.pushtap_olap_rate(below_knee) == pytest.approx(pim_bound)

    def test_decline_after_knee(self, model):
        above_knee = 2.0 * model.knee_tpmc / 60.0 / 1e9
        pim_bound = 1.0 / model.query_pim_time
        assert model.pushtap_olap_rate(above_knee) < pim_bound

    def test_olap_zero_beyond_peak(self, model):
        assert model.pushtap_olap_rate(model.pushtap_max_oltp() * 1.01) == 0.0
        assert model.mi_olap_rate(model.mi_max_oltp() * 1.01) == 0.0

    def test_mi_bus_traffic_multiplied(self, model):
        assert model.mi_txn_bytes() == pytest.approx(
            model.txn_bytes * model.mi_traffic_multiplier
        )
        assert model.mi_max_oltp() < model.pushtap_max_oltp()

    def test_mi_rebuild_drain_inflates_queries(self, model):
        low = model.mi_olap_rate(model.mi_max_oltp() * 0.05)
        high = model.mi_olap_rate(model.mi_max_oltp() * 0.5)
        assert high < low


class TestNaiveFormat:
    SCHEMA = TableSchema.of(
        "t",
        [Column("a", 9, kind="bytes"), Column("b", 2), Column("c", 4), Column("d", 2),
         Column("e", 2), Column("f", 6), Column("g", 1), Column("h", 3), Column("i", 5)],
    )

    def test_groups_of_d_columns(self):
        layout = naive_aligned_layout(self.SCHEMA, 4)
        assert layout.num_parts == 3
        # Part widths are the widest column of each schema-order group.
        assert [p.row_width for p in layout.parts] == [9, 6, 5]

    def test_one_column_per_slot(self):
        layout = naive_aligned_layout(self.SCHEMA, 4)
        for part in layout.parts:
            for slot in part.slots:
                assert len(slot.fields) <= 1

    def test_padding_exceeds_compact(self):
        from repro.format.binpack import compact_aligned_layout

        naive = naive_aligned_layout(self.SCHEMA, 4)
        compact = compact_aligned_layout(self.SCHEMA, ["b", "c"], 4, 0.6)
        assert naive.padding_bytes_per_row() >= compact.padding_bytes_per_row()

    def test_key_columns_default_to_all(self):
        layout = naive_aligned_layout(self.SCHEMA, 4)
        assert set(layout.key_columns) == set(self.SCHEMA.column_names)

    def test_invalid_devices(self):
        from repro.errors import LayoutError

        with pytest.raises(LayoutError):
            naive_aligned_layout(self.SCHEMA, 0)


class TestDatabaseBundle:
    def test_duplicate_registration_rejected(self, loaded_engine):
        db = loaded_engine.db
        with pytest.raises(SchemaError):
            db.add_table(db.table("item"))
        # A second table may not bring an index of a registered name.
        with pytest.raises(SchemaError, match="duplicate index 'item_pk'"):
            db.add_table(dataclasses.replace(db.table("item"), name="item2"))
        assert "item2" not in db.tables

    def test_unknown_lookups(self):
        db = Database()
        with pytest.raises(SchemaError):
            db.table("ghost")
        with pytest.raises(SchemaError):
            db.index("ghost")


class TestTableRuntimeHelpers:
    def test_load_rows_bulk(self, fresh_engine):
        """The bulk loader writes initial rows without MVCC churn and
        indexes them under the table's key column."""
        runtime = fresh_engine.table("item")
        log_length = runtime.mvcc.journal.records
        block = {
            "i_id": np.arange(1001, 1006),
            "i_im_id": np.ones(5, dtype=np.int64),
            "i_name": np.full((5, 1), ord("x"), dtype=np.uint8),
            "i_price": np.full(5, 100),
            "i_data": np.full((5, 1), ord("y"), dtype=np.uint8),
        }
        count = runtime.load_columns([block])
        assert count == 5
        ts = fresh_engine.db.oracle.read_timestamp()
        assert runtime.read_row(2, ts)["i_price"] == 100
        assert runtime.mvcc.journal.records == log_length
        assert fresh_engine.db.index("item_pk").probe(1003) == 2

    def test_update_unknown_column_rejected(self, fresh_engine):
        runtime = fresh_engine.table("item")
        with pytest.raises(TransactionError):
            runtime.update_row(0, 1, {"bogus": 1})

    def test_update_of_a_key_column_rejected_before_the_install(self, fresh_engine):
        """Key columns are immutable: changing one would strand the
        index entry under the old key. The update raises, naming the
        table and the columns, and leaves no journal entry."""
        runtime = fresh_engine.table("stock")
        log_length = runtime.mvcc.journal.records
        ts = fresh_engine.db.oracle.next_timestamp()
        with pytest.raises(
            TransactionError,
            match=r"table 'stock': cannot update index key column\(s\) \['s_i_id'\]",
        ):
            runtime.update_row(0, ts, {"s_quantity": 5, "s_i_id": 9999})
        assert runtime.mvcc.journal.records == log_length
        assert runtime.key(runtime.read_row(0, ts)) == runtime.stored_key(0)
        assert fresh_engine.db.index("stock_pk").probe(runtime.stored_key(0)) == 0

    def test_region_rows_tracks_delta(self, fresh_engine):
        runtime = fresh_engine.table("item")
        before = runtime.region_rows()
        runtime.update_row(0, fresh_engine.db.oracle.next_timestamp(), {"i_price": 1})
        after = runtime.region_rows()
        assert after.delta_rows >= before.delta_rows


class TestOracleSequencing:
    def test_engine_timestamps_monotone(self, fresh_engine):
        oracle = fresh_engine.db.oracle
        seen = [oracle.next_timestamp() for _ in range(5)]
        assert seen == sorted(seen)
        assert oracle.read_timestamp() == seen[-1]

    def test_separate_oracles_independent(self):
        a, b = TimestampOracle(), TimestampOracle()
        a.next_timestamp()
        assert b.read_timestamp() == 0
