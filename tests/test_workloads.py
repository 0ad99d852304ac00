"""CH-benCHmark / HTAPBench workload definitions and data generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SchemaError
from repro.experiments.baselines import PINS
from repro.workloads import chbench as ch
from repro.workloads import htapbench as hb
from repro.workloads.tpcc_gen import (
    _GENERATORS,
    _draw,
    _table_seed,
    generate_table,
)
from tests.test_baselines import committed


def generate_rows(table, counts, seed=7):
    """The rows of :func:`generate_table` as dicts (``int`` / ``bytes``):
    the row-at-a-time oracle view of the generated blocks."""
    for block in generate_table(table, counts, seed):
        values = [
            v.tolist() if v.ndim == 1 else [row.tobytes() for row in v]
            for v in block.values()
        ]
        for row in zip(*values):
            yield dict(zip(block, row))


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
        for scale in (0, -1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match="^scale must be a positive finite number"):
                ch.row_counts(scale)


def whole_table(table, counts, seed=7, block_rows=1024):
    """``generate_table``'s blocks joined: column → array over every row."""
    blocks = list(generate_table(table, counts, seed, block_rows))
    return {column: np.concatenate([b[column] for b in blocks]) for column in blocks[0]}


def reference_table(table, counts, seed):
    """The stream contract row by row, in Python ints: per drawn column one
    ``PCG64`` spawned in rule order, one raw word per int, two letters per
    word (low half first) per fill."""
    rules = _GENERATORS[table](counts)
    drawn = [(column, rule) for column, rule in rules if isinstance(rule, tuple)]
    children = np.random.SeedSequence(_table_seed(table, seed)).spawn(len(drawn))
    streams = {column: np.random.PCG64(child) for (column, _), child in zip(drawn, children)}
    rows = []
    for _ in range(counts[table]):
        row = {}
        for column, rule in drawn:
            if rule[0] == "int":
                word = int(streams[column].random_raw())
                row[column] = rule[1] + ((word >> 32) * (rule[2] - rule[1]) >> 32)
            else:
                halves = []
                for _ in range(-(-rule[1] // 2)):
                    word = int(streams[column].random_raw())
                    halves += [word & 0xFFFFFFFF, word >> 32]
                row[column] = bytes(65 + (h * 26 >> 32) for h in halves[: rule[1]])
        rows.append(row)
    return rows


class _Words:
    """A stand-in stream that hands out the given raw words."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, size):
        return self.words[:size]


class TestGenerators:
    COUNTS = ch.row_counts(2e-5)

    def test_all_tables_generate(self):
        for table in self.COUNTS:
            rows = list(generate_rows(table, self.COUNTS))
            assert len(rows) == self.COUNTS[table]
            schema = ch.ch_table(table)
            for row in rows[:5]:
                schema.encode_row(row)  # validates widths/ranges

    def test_rows_are_a_view_of_the_blocks(self):
        for table in self.COUNTS:
            rows = list(generate_rows(table, self.COUNTS, 9))
            values = whole_table(table, self.COUNTS, 9)
            assert rows == [
                {c: v[i].tolist() if v.ndim == 1 else v[i].tobytes() for c, v in values.items()}
                for i in range(self.COUNTS[table])
            ]
            assert all(type(v) in (int, bytes) for row in rows[:3] for v in row.values())

    def test_deterministic(self):
        a = list(generate_rows("orderline", self.COUNTS, seed=3))
        b = list(generate_rows("orderline", self.COUNTS, seed=3))
        assert a == b

    def test_foreign_keys_in_range(self):
        # column → the table its values number (1-based), or its count;
        # a table's own id column numbers its rows.
        targets = {
            "warehouse": {"w_id": "warehouse"},
            "district": {"d_id": 10, "d_w_id": "warehouse"},
            "customer": {"c_id": "customer", "c_d_id": 10, "c_w_id": "warehouse"},
            "history": {
                "h_c_id": "customer", "h_c_d_id": 10, "h_c_w_id": "warehouse",
                "h_d_id": 10, "h_w_id": "warehouse",
            },
            "neworder": {"no_o_id": "neworder", "no_d_id": 10, "no_w_id": "warehouse"},
            "order": {"o_id": "order", "o_d_id": 10, "o_w_id": "warehouse", "o_c_id": "customer"},
            "orderline": {
                "ol_o_id": "order", "ol_d_id": 10, "ol_w_id": "warehouse",
                "ol_i_id": "item", "ol_supply_w_id": "warehouse",
            },
            "item": {"i_id": "item"},
            "stock": {"s_i_id": "item", "s_w_id": "warehouse"},
        }
        for scale in (2e-5, 1e-3):
            counts = ch.row_counts(scale)
            for table, columns in targets.items():
                values = whole_table(table, counts)
                for column, target in columns.items():
                    top = counts[target] if isinstance(target, str) else target
                    assert 1 <= values[column].min() and values[column].max() <= top, (
                        scale, column,
                    )

    def test_draws_in_range(self):
        """Every int draw lies in ``[lo, hi)`` and every fill is ``A``–``Z``."""
        for table in self.COUNTS:
            values = whole_table(table, self.COUNTS)
            for column, rule in _GENERATORS[table](self.COUNTS):
                if isinstance(rule, tuple) and rule[0] == "int":
                    assert rule[1] <= values[column].min(), column
                    assert values[column].max() < rule[2], column
                elif isinstance(rule, tuple):
                    assert values[column].shape == (self.COUNTS[table], rule[1])
                    assert values[column].min() >= ord("A"), column
                    assert values[column].max() <= ord("Z"), column

    def test_extreme_words_map_to_the_range_ends(self):
        top = 2**64 - 1
        ints = _draw(_Words([0, top, 2**63]), ("int", 5, 16), 3)
        assert ints.tolist() == [5, 15, 10]
        assert _draw(_Words([0, top]), ("int", 1, 2), 2).tolist() == [1, 1]
        # Low half first: word 0xFFFFFFFF gives "ZA", its high half alone "AZ".
        letters = _draw(_Words([0xFFFFFFFF, top << 32 & top, 0]), ("fill", 5), 1)
        assert letters.tobytes() == b"ZAAZA"

    def test_block_rows_do_not_change_a_table(self):
        for table in self.COUNTS:
            whole = whole_table(table, self.COUNTS, block_rows=1024)
            for block_rows in (1, 7):
                split = whole_table(table, self.COUNTS, block_rows=block_rows)
                assert split.keys() == whole.keys()
                for column in whole:
                    assert np.array_equal(split[column], whole[column]), (
                        table, column, block_rows,
                    )

    @settings(max_examples=60, deadline=None)
    @given(
        # 1 → one-row tables and ranges of one value (o_c_id with one customer).
        st.fixed_dictionaries(
            {t: st.sampled_from([1, 2, 3, 4, 5, 8, 11, 16, 23]) for t in ch.row_counts(1e-4)}
        ),
        st.integers(0, 2**31),
        st.sampled_from([1, 2, 3, 7, 1024]),
    )
    def test_small_counts(self, counts, seed, block_rows):
        # Every table, NEWORDER (no draws) included, against the contract.
        for table in counts:
            blocks = list(generate_table(table, counts, seed, block_rows))
            assert [len(next(iter(b.values()))) for b in blocks] == [
                min(block_rows, counts[table] - start)
                for start in range(0, counts[table], block_rows)
            ]
            values = {c: np.concatenate([b[c] for b in blocks]) for c in blocks[0]}
            reference = reference_table(table, counts, seed)
            drawn = [
                {c: values[c][i].tolist() if values[c].ndim == 1 else values[c][i].tobytes()
                 for c in row}
                for i, row in enumerate(reference)
            ]
            assert drawn == reference, table

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
        by_length = {}
        for table in self.COUNTS:
            by_length.setdefault(len(table), []).append(_table_seed(table, 7))
        for seeds in by_length.values():
            assert len(seeds) == len(set(seeds))

        # The streams themselves diverge: no drawn column of one table
        # starts with the raw words of one of the other's.
        def first_words(table):
            drawn = [rule for _, rule in _GENERATORS[table](self.COUNTS) if isinstance(rule, tuple)]
            children = np.random.SeedSequence(_table_seed(table, 7)).spawn(len(drawn))
            return {tuple(np.random.PCG64(child).random_raw(4).tolist()) for child in children}

        stock, order = first_words("stock"), first_words("order")
        assert len(stock) == 12 and len(order) == 4 and not stock & order

    def test_table_seed_stable_across_seeds(self):
        assert _table_seed("stock", 7) == _table_seed("stock", 7)
        assert _table_seed("stock", 7) != _table_seed("stock", 8)

    def test_generator_pin(self):
        """The stream canary: every table at ``row_counts(2e-5)``, seed 7.
        A NumPy BitGenerator or rule change drifts here first, before the
        device-image, WAL, serve and seven-query pins downstream of it."""
        assert PINS["generator"]() == committed("pins")["generator"]


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
