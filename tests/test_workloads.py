"""CH-benCHmark / HTAPBench workload definitions and data generation."""

import pytest

from repro.errors import SchemaError
from repro.workloads import chbench as ch
from repro.workloads import htapbench as hb
from repro.workloads.tpcc_gen import generate_database, generate_rows


class TestCHSchema:
    def test_nine_tables(self):
        assert len(ch.TABLE_NAMES) == 9
        assert set(ch.ch_schema()) == set(ch.TABLE_NAMES)

    def test_paper_row_count_ratios(self):
        """§7.1: 20M/20M/6M/6M/60M/60M/6M."""
        c = ch.PAPER_ROW_COUNTS
        assert c["item"] == c["stock"] == 20_000_000
        assert c["customer"] == c["order"] == c["history"] == 6_000_000
        assert c["orderline"] == c["neworder"] == 60_000_000

    def test_width_range_matches_paper(self):
        """§8: CH column widths span 2 B to 152 B."""
        widths = [c.width for t in ch.TABLE_NAMES for c in ch.ch_table(t)]
        assert min(widths) == 2
        assert max(widths) == 152

    def test_fig3_example_columns_exist(self):
        customer = ch.ch_table("customer")
        for name in ("c_id", "c_d_id", "c_w_id", "c_zip", "c_state", "c_credit"):
            assert customer.has_column(name)
        assert customer.column("c_zip").width == 9

    def test_ol_amount_is_8_bytes(self):
        """§8 anchors ORDERLINE's amount column at 8 B."""
        assert ch.ch_table("orderline").column("ol_amount").width == 8

    def test_unknown_table_rejected(self):
        with pytest.raises(SchemaError):
            ch.ch_table("suppliers")


class TestQueryColumnMap:
    def test_22_queries(self):
        assert ch.all_queries() == [f"Q{i}" for i in range(1, 23)]
        for query in ch.all_queries():
            assert ch.query_columns(query)

    def test_q1_anchor(self):
        """§7.2: the Q1-only subset has 4 key columns."""
        total = sum(len(ch.key_columns_for(["Q1"], t)) for t in ch.TABLE_NAMES)
        assert total == 4

    def test_q1_to_q3_anchor(self):
        """§7.2: Q1–Q3 has 32 key columns."""
        total = sum(
            len(ch.key_columns_for(["Q1", "Q2", "Q3"], t)) for t in ch.TABLE_NAMES
        )
        assert total == 32

    def test_scan_frequency_anchors(self):
        """§4.2: c_id is scanned by 8 queries, c_state by 3."""
        weights = ch.column_scan_weights(ch.all_queries(), "customer")
        assert weights["c_id"] == 8
        assert weights["c_state"] == 3

    def test_key_columns_follow_schema_order(self):
        keys = ch.key_columns_for(ch.all_queries(), "orderline")
        schema_order = [
            c for c in ch.ch_table("orderline").column_names if c in set(keys)
        ]
        assert keys == schema_order

    def test_unknown_query(self):
        with pytest.raises(SchemaError):
            ch.query_columns("Q99")


class TestRowCounts:
    def test_scaling(self):
        counts = ch.row_counts(1e-3)
        assert counts["orderline"] == 60_000
        assert counts["warehouse"] == 2

    def test_district_ratio_preserved(self):
        for scale in (1e-5, 1e-3, 1.0):
            counts = ch.row_counts(scale)
            assert counts["district"] == counts["warehouse"] * 10

    def test_minimum_one_row(self):
        counts = ch.row_counts(1e-9)
        assert all(v >= 1 for v in counts.values())

    def test_bad_scale(self):
        with pytest.raises(SchemaError):
            ch.row_counts(0)


class TestGenerators:
    COUNTS = ch.row_counts(2e-5)

    def test_all_tables_generate(self):
        db = generate_database(2e-5)
        for table, rows in db.items():
            assert len(rows) == self.COUNTS[table]
            schema = ch.ch_table(table)
            for row in rows[:5]:
                schema.encode_row(row)  # validates widths/ranges

    def test_deterministic(self):
        a = list(generate_rows("orderline", self.COUNTS, seed=3))
        b = list(generate_rows("orderline", self.COUNTS, seed=3))
        assert a == b

    def test_foreign_keys_in_range(self):
        db = generate_database(2e-5)
        items = self.COUNTS["item"]
        warehouses = self.COUNTS["warehouse"]
        for ol in db["orderline"]:
            assert 1 <= ol["ol_i_id"] <= items
            assert 1 <= ol["ol_w_id"] <= warehouses
        for c in db["customer"]:
            assert 1 <= c["c_d_id"] <= 10

    def test_orderline_pk_unique(self):
        keys = {
            (r["ol_o_id"], r["ol_number"])
            for r in generate_rows("orderline", self.COUNTS)
        }
        assert len(keys) == self.COUNTS["orderline"]

    def test_stock_pk_unique(self):
        keys = {
            (r["s_w_id"], r["s_i_id"]) for r in generate_rows("stock", self.COUNTS)
        }
        assert len(keys) == self.COUNTS["stock"]

    def test_missing_table_rejected(self):
        with pytest.raises(SchemaError):
            list(generate_rows("orderline", {"orderline": 10}))
        with pytest.raises(SchemaError):
            list(generate_rows("nope", self.COUNTS))

    def test_same_length_tables_use_distinct_streams(self):
        """Regression: seeding by ``len(table)`` put same-length names
        (stock/order, 5 chars each) on identical RNG streams."""
        from repro.workloads.tpcc_gen import _table_seed

        by_length = {}
        for table in self.COUNTS:
            by_length.setdefault(len(table), []).append(_table_seed(table, 7))
        for seeds in by_length.values():
            assert len(seeds) == len(set(seeds))
        # The streams themselves diverge: equal-length names no longer
        # draw identical random sequences.
        import numpy as np

        a = np.random.RandomState(_table_seed("stock", 7)).randint(0, 2**31, 16)
        b = np.random.RandomState(_table_seed("order", 7)).randint(0, 2**31, 16)
        assert list(a) != list(b)

    def test_table_seed_stable_across_seeds(self):
        from repro.workloads.tpcc_gen import _table_seed

        assert _table_seed("stock", 7) == _table_seed("stock", 7)
        assert _table_seed("stock", 7) != _table_seed("stock", 8)


class TestHTAPBench:
    def test_tables(self):
        assert set(hb.HTAPBENCH_TABLES) == {"account", "teller", "branch", "txn_history"}

    def test_key_columns_subset_of_schema(self):
        for table in hb.HTAPBENCH_TABLES:
            keys = hb.htapbench_key_columns(table)
            schema = hb.htapbench_table(table)
            assert all(schema.has_column(k) for k in keys)

    def test_scan_weights(self):
        weights = hb.htapbench_scan_weights("txn_history")
        assert weights["x_amount"] >= 3

    def test_unknown_names(self):
        with pytest.raises(SchemaError):
            hb.htapbench_table("nope")
        with pytest.raises(SchemaError):
            hb.htapbench_query_columns("H99")


def one_shard(engine, **kwargs):
    """The batch driver over a bare engine (a one-shard cluster)."""
    from repro.cluster import ClusterWorkload, PushTapCluster

    return ClusterWorkload(PushTapCluster([engine], engine.table_counts()), **kwargs)


class TestMixedWorkloadDriver:
    def test_run_reports_throughput(self, fresh_engine):
        workload = one_shard(fresh_engine, txns_per_query=10, queries=("Q6",))
        report = workload.run(num_queries=3)
        assert report.transactions == 30
        assert report.queries == 3
        assert report.oltp_tpmc > 0
        assert report.olap_qphh > 0
        assert report.query_histogram("Q6").mean > 0
        assert report.simulated_time == pytest.approx(
            report.oltp_time + report.olap_time + report.defrag_time
        )

    def test_query_rotation(self, fresh_engine):
        workload = one_shard(fresh_engine, txns_per_query=5, queries=("Q1", "Q6"))
        report = workload.run(num_queries=4)
        assert set(report.query_histograms) == {"Q1", "Q6"}
        assert len(report.query_histograms["Q1"].samples) == 2

    def test_validation(self, fresh_engine):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            one_shard(fresh_engine, txns_per_query=-1)
        with pytest.raises(ConfigError):
            one_shard(fresh_engine, queries=())

    def test_delivery_fraction_reaches_driver(self, fresh_engine):
        workload = one_shard(fresh_engine, payment_fraction=0.4, delivery_fraction=0.2)
        (driver,) = workload.drivers
        assert driver.payment_fraction == 0.4
        assert driver.delivery_fraction == 0.2

    def test_invalid_delivery_mix_rejected(self, fresh_engine):
        from repro.errors import TransactionError

        with pytest.raises(TransactionError, match="delivery_fraction"):
            one_shard(fresh_engine, payment_fraction=0.5, delivery_fraction=0.8)

    def test_query_histogram_handle_is_retained(self):
        from repro.cluster import ClusterReport

        report = ClusterReport()
        report.query_histogram("Q1").observe(5.0)
        # The handle returned before any observe_query call must be the
        # registered histogram, not a fresh throwaway.
        assert report.query_histograms["Q1"].mean == 5.0
        assert report.query_histograms["Q1"].samples == [5.0]

    def test_tpmc_counts_committed_only(self):
        from repro.cluster import ClusterReport, ShardReport
        from repro.units import S

        report = ClusterReport(
            transactions=12,
            aborted=2,
            per_shard=[ShardReport(shard=0, warehouses=[1], oltp_time=60.0 * S)],
        )
        assert report.committed == 10
        assert report.oltp_tpmc == pytest.approx(10.0)


class TestEngineReport:
    def test_report_contents(self, worked_engine):
        report = worked_engine.report()
        assert report["transactions"] == 60
        assert report["pim_units"] == 64
        assert report["tables"]["orderline"]["rows"] >= 1200
        assert report["mean_txn_time_ns"] > 0


class TestLayoutDescribe:
    def test_describe_roundtrips_structure(self, loaded_engine):
        layout = loaded_engine.layouts["orderline"]
        desc = layout.describe()
        assert desc["table"] == "orderline"
        assert len(desc["parts"]) == layout.num_parts
        placed = sum(
            f["length"]
            for part in desc["parts"]
            for slot in part["slots"]
            for f in slot["fields"]
        )
        assert placed == layout.useful_bytes_per_row()
