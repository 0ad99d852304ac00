"""OLAP operators, plan glue, and the three analytical queries.

Functional correctness is checked against pure-Python references
computed from the same MVCC-visible rows.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import QueryError
from repro.olap import plan as qplan
from repro.olap.engine import QueryTiming
from repro.olap.operators import (
    AggregationOperation,
    FilterOperation,
    GroupOperation,
    HashOperation,
    RegionRows,
    scan_rows,
)
from repro.olap.queries import (
    _Q1_DELIVERY_CUTOFF,
    _Q6_DELIVERY_HI,
    _Q6_DELIVERY_LO,
    _Q6_QTY_HI,
    _Q6_QTY_LO,
    _Q9_IM_CUTOFF,
)
from repro.pim.pim_unit import Condition


def visible_rows(engine, table):
    """All rows of ``table`` visible at the current read timestamp."""
    runtime = engine.table(table)
    ts = engine.db.oracle.read_timestamp()
    return [runtime.read_row(rid, ts) for rid in range(runtime.num_rows)]


class TestFilterOperation:
    def test_filter_matches_reference(self, worked_engine):
        engine = worked_engine
        table = engine.table("orderline")
        ts = engine.db.oracle.read_timestamp()
        table.snapshots.update_to(ts)
        op = FilterOperation(
            table.storage,
            engine.units,
            "ol_quantity",
            Condition("le", 5),
            table.region_rows(),
        )
        engine.olap.executor.execute(op)
        matched = int(op.mask.sum())
        reference = sum(1 for r in visible_rows(engine, "orderline") if r["ol_quantity"] <= 5)
        assert matched == reference

    def test_requires_key_column(self, loaded_engine):
        table = loaded_engine.table("orderline")
        with pytest.raises(Exception):
            FilterOperation(
                table.storage,
                loaded_engine.units,
                "ol_dist_info",
                Condition("eq", 0),
                table.region_rows(),
            )

    def test_empty_scan_rejected(self, loaded_engine):
        table = loaded_engine.table("orderline")
        with pytest.raises(QueryError):
            FilterOperation(
                table.storage,
                loaded_engine.units,
                "ol_quantity",
                Condition("eq", 0),
                RegionRows(0, 0),
            )


class TestGroupAndAggregation:
    def test_group_then_aggregate_matches_reference(self, worked_engine):
        engine = worked_engine
        table = engine.table("orderline")
        ts = engine.db.oracle.read_timestamp()
        table.snapshots.update_to(ts)
        rows = table.region_rows()
        gop = GroupOperation(table.storage, engine.units, "ol_number", rows)
        engine.olap.executor.execute(gop)
        merged = qplan.merge_group_blocks(gop)
        agg = AggregationOperation(
            table.storage,
            engine.units,
            "ol_quantity",
            rows,
            merged.indices,
            merged.num_groups,
        )
        engine.olap.executor.execute(agg)
        totals = agg.total
        reference = {}
        for r in visible_rows(engine, "orderline"):
            reference[r["ol_number"]] = reference.get(r["ol_number"], 0) + r["ol_quantity"]
        measured = {
            int(key): int(totals[g]) for g, key in enumerate(merged.keys) if totals[g]
        }
        assert measured == {k: v for k, v in reference.items() if v}

    def test_aggregation_needs_matching_indices(self, loaded_engine):
        table = loaded_engine.table("orderline")
        rows = table.region_rows()
        count = rows.data_rows + rows.delta_rows
        with pytest.raises(
            QueryError,
            match=f"table 'orderline': 0 group indices for a scan of {count} rows",
        ):
            AggregationOperation(
                table.storage, loaded_engine.units, "ol_amount", rows, np.zeros(0), 1
            )

    def test_aggregation_rejects_zero_groups(self, loaded_engine):
        table = loaded_engine.table("orderline")
        with pytest.raises(QueryError):
            AggregationOperation(
                table.storage, loaded_engine.units, "ol_amount",
                table.region_rows(), np.zeros(0), 0,
            )

    @pytest.mark.parametrize(
        "ids, message",
        [
            (np.array([0, 65537]), r"row 1 has group index 65537, outside \[0, 2\)"),
            (np.array([0, -1]), r"row 1 has group index -1, outside \[0, 2\)"),
            (np.array([0.0, 0.9]), "group indices of dtype float64"),
        ],
    )
    def test_aggregation_rejects_ids_that_would_wrap(self, loaded_engine, ids, message):
        """Ids a cast to 2 bytes would wrap, or truncate, are refused by
        name before any phase runs."""
        table = loaded_engine.table("orderline")
        indices = np.resize(ids, scan_rows(table.region_rows()))
        counts = loaded_engine.units.counts.copy()
        with pytest.raises(QueryError, match=f"table 'orderline': {message}"):
            loaded_engine.olap.aggregate(table, "ol_amount", indices, 2, QueryTiming())
        assert np.array_equal(loaded_engine.units.counts, counts)

    def test_aggregation_takes_in_range_ids_of_any_integer_dtype(self, worked_engine):
        table = worked_engine.table("orderline")
        ids = np.resize(np.array([0, 1, qplan.INVALID_GROUP]), scan_rows(table.region_rows()))
        totals = [
            worked_engine.olap.aggregate(table, "ol_amount", ids.astype(dtype), 2, QueryTiming())
            for dtype in (np.uint16, np.int64, np.uint64, np.int32)
        ]
        assert totals[0].any()
        for total in totals[1:]:
            assert np.array_equal(total, totals[0])


class TestRegionRows:
    @pytest.mark.parametrize(
        "extents, field",
        [
            ((-5, 0), "data_rows"),
            ((10, -3), "delta_rows"),
            ((2.5, 0), "data_rows"),
            ((True, 0), "data_rows"),
            ((0, np.bool_(True)), "delta_rows"),
        ],
    )
    def test_bad_extents_are_refused_by_name(self, extents, field):
        with pytest.raises(QueryError, match=f"{field} must be a non-negative integer"):
            RegionRows(*extents)

    def test_numpy_integers_are_extents(self):
        rows = RegionRows(np.int64(3), np.uint32(0))
        assert scan_rows(rows) == 3


#: A table's storage, as ``combine_masks`` reads it.
STORAGE = SimpleNamespace(block_rows=16, layout=SimpleNamespace(schema=SimpleNamespace(name="t")))


def fake_filter(bits, storage=STORAGE):
    """A filter scan's harvest: its mask over ``len(bits)`` data rows."""
    return SimpleNamespace(
        mask=np.array(bits, dtype=bool), rows=RegionRows(len(bits)), storage=storage
    )


class TestPlanHelpers:
    def test_combine_masks_is_and(self):
        combined, _ = qplan.combine_masks(
            [fake_filter([1, 1, 0, 0]), fake_filter([1, 0, 1, 0])]
        )
        assert list(combined) == [True, False, False, False]

    def test_combine_masks_mismatched_slices(self):
        with pytest.raises(QueryError, match="table 't': cannot combine a filter over"):
            qplan.combine_masks([fake_filter([1, 1]), fake_filter([1, 1, 1, 1])])
        other = SimpleNamespace(**vars(STORAGE))
        with pytest.raises(QueryError, match="table 't'"):
            qplan.combine_masks([fake_filter([1, 1]), fake_filter([1, 1], storage=other)])

    def test_combine_requires_filters(self):
        with pytest.raises(QueryError):
            qplan.combine_masks([])

    def test_masks_to_indices(self):
        indices = qplan.masks_to_indices(np.array([True, False, True]))
        assert indices.dtype == np.uint16
        assert list(indices) == [0, qplan.INVALID_GROUP, 0]

    def test_apply_mask_to_indices(self):
        indices = np.array([1, 2, 3], dtype=np.uint16)
        masked = qplan.apply_mask_to_indices(indices, np.array([True, False, True]))
        assert masked.dtype == np.uint16
        assert list(masked) == [1, qplan.INVALID_GROUP, 3]
        with pytest.raises(QueryError, match="a mask of 0 rows for 3 group indices"):
            qplan.apply_mask_to_indices(indices, np.zeros(0, dtype=bool))


class TestHashJoin:
    def test_join_matches_reference(self, worked_engine):
        engine = worked_engine
        item = engine.table("item")
        orderline = engine.table("orderline")
        ts = engine.db.oracle.read_timestamp()
        item.snapshots.update_to(ts)
        orderline.snapshots.update_to(ts)
        build = HashOperation(item.storage, engine.units, "i_id", item.region_rows())
        probe = HashOperation(
            orderline.storage, engine.units, "ol_i_id", orderline.region_rows()
        )
        engine.olap.executor.execute(build)
        engine.olap.executor.execute(probe)
        result = qplan.hash_join(build, probe)
        item_ids = {r["i_id"] for r in visible_rows(engine, "item")}
        reference = sum(
            1 for r in visible_rows(engine, "orderline") if r["ol_i_id"] in item_ids
        )
        assert result.matches == reference

    def test_join_with_build_mask(self, worked_engine):
        engine = worked_engine
        item = engine.table("item")
        orderline = engine.table("orderline")
        ts = engine.db.oracle.read_timestamp()
        item.snapshots.update_to(ts)
        orderline.snapshots.update_to(ts)
        item_rows = item.region_rows()
        f = FilterOperation(
            item.storage, engine.units, "i_im_id", Condition("le", 100), item_rows
        )
        engine.olap.executor.execute(f)
        build = HashOperation(item.storage, engine.units, "i_id", item_rows)
        probe = HashOperation(
            orderline.storage, engine.units, "ol_i_id", orderline.region_rows()
        )
        engine.olap.executor.execute(build)
        engine.olap.executor.execute(probe)
        result = qplan.hash_join(build, probe, build_mask=f.mask)
        small = {
            r["i_id"] for r in visible_rows(engine, "item") if r["i_im_id"] <= 100
        }
        reference = sum(
            1 for r in visible_rows(engine, "orderline") if r["ol_i_id"] in small
        )
        assert result.matches == reference
        # A mask over other extents is refused, naming the build table.
        count = len(f.mask)
        with pytest.raises(
            QueryError, match=f"table 'item': {count - 1} build-mask rows for a scan of {count} rows"
        ):
            qplan.hash_join(build, probe, build_mask=f.mask[:-1])

    def test_mismatched_hash_functions_rejected(self, worked_engine):
        # Same key => same hash => same bucket only holds within one hash
        # function; joining across two used to return a silently wrong
        # (much smaller) match set.
        engine = worked_engine
        item = engine.table("item")
        orderline = engine.table("orderline")
        ts = engine.db.oracle.read_timestamp()
        item.snapshots.update_to(ts)
        orderline.snapshots.update_to(ts)
        timing = QueryTiming()
        build = engine.olap.hash_scan(item, "i_id", timing, hash_function=0)
        probe = engine.olap.hash_scan(orderline, "ol_i_id", timing, hash_function=1)
        with pytest.raises(QueryError, match=r"'i_id'.*function 0.*'ol_i_id'.*function 1"):
            engine.olap.join(build, probe, timing)
        same = engine.olap.hash_scan(orderline, "ol_i_id", timing, hash_function=0)
        assert engine.olap.join(build, same, timing).matches > 0


class TestAccountingIdentity:
    """What an operator run reports is what its units did (ROADMAP 7e):
    checked per run, against counts taken independently."""

    @staticmethod
    def unit_work(engine):
        return {
            key: (u.stats.dram_bytes_read + u.stats.dram_bytes_written,
                  u.stats.elements_processed)
            for key, u in engine.units.items()
        }

    def test_execution_result_equals_unit_deltas(self, worked_engine):
        self.check_operator_runs(worked_engine)

    def test_identity_holds_on_grown_plans(self, fresh_engine):
        """Each operator's memo plan is grown by further transactions; the
        work it reports is that of the grown plan, not the one it grew from."""
        engine = fresh_engine
        driver = engine.make_driver(seed=3)
        engine.run_transactions(40, driver)
        self.check_operator_runs(engine)
        plans = dict(engine.units.scan_plans)
        engine.run_transactions(60, driver)
        self.check_operator_runs(engine)
        grown = [
            key for key, plan in engine.units.scan_plans.items()
            if key in plans and plan.rows != plans[key].rows and plan.work != plans[key].work
        ]
        assert len(grown) == len(plans) == 4

    def check_operator_runs(self, engine):
        table = engine.table("orderline")
        table.snapshots.update_to(engine.db.oracle.read_timestamp())
        rows = table.region_rows()
        storage, units = table.storage, engine.units
        group = GroupOperation(storage, units, "ol_number", rows)
        engine.olap.executor.execute(group)
        merged = qplan.merge_group_blocks(group)
        runs = [
            FilterOperation(storage, units, "ol_delivery_d", Condition("gt", 5), rows),
            GroupOperation(storage, units, "ol_number", rows),
            AggregationOperation(
                storage, units, "ol_amount", rows, merged.indices, merged.num_groups
            ),
            HashOperation(storage, units, "ol_i_id", rows),
        ]
        block_rows = storage.block_rows
        for op in runs:
            before = self.unit_work(engine)
            result = engine.olap.executor.execute(op)
            after = self.unit_work(engine)
            deltas = [
                (after[key][0] - before[key][0], after[key][1] - before[key][1])
                for key in after
            ]
            assert result.dram_bytes == sum(d[0] for d in deltas) > 0
            assert result.elements == sum(d[1] for d in deltas)
            # Only the participating units worked, and every one of them did.
            worked = {key for key, d in zip(after, deltas) if d != (0, 0)}
            assert worked == {
                (u.bank.device.index, u.bank.index) for u in op.participating_units()
            }
            # Independently: every scanned row is one element; every block
            # moves its bitmap slice plus at least its column bytes.
            assert result.elements == rows.data_rows + rows.delta_rows
            blocks = -(-rows.data_rows // block_rows) + -(-rows.delta_rows // block_rows)
            assert op.bytes_scanned == result.elements * op.width + blocks * (block_rows // 8)
            assert result.dram_bytes >= op.bytes_scanned

    def test_join_elements_are_the_live_rows_of_both_sides(self, worked_engine):
        engine = worked_engine
        item, orderline = engine.table("item"), engine.table("orderline")
        ts = engine.db.oracle.read_timestamp()
        live = 0
        for table in (item, orderline):
            table.snapshots.update_to(ts)
            rows = table.region_rows()
            live += int(table.snapshots.visible_data_rows()[: rows.data_rows].sum())
            live += int(table.snapshots.visible_delta_rows()[: rows.delta_rows].sum())
        timing = QueryTiming()
        build = engine.olap.hash_scan(item, "i_id", timing)
        probe = engine.olap.hash_scan(orderline, "ol_i_id", timing)
        assert engine.olap.join(build, probe, timing).pim_elements == live


class TestQueries:
    def q6_reference(self, engine):
        total = 0
        for r in visible_rows(engine, "orderline"):
            if (
                _Q6_DELIVERY_LO <= r["ol_delivery_d"] < _Q6_DELIVERY_HI
                and _Q6_QTY_LO <= r["ol_quantity"] <= _Q6_QTY_HI
            ):
                total += r["ol_amount"]
        return total

    def test_q6_matches_reference(self, worked_engine):
        result = worked_engine.query("Q6")
        assert result.rows["revenue"] == self.q6_reference(worked_engine)
        assert result.total_time > 0

    def test_q1_matches_reference(self, worked_engine):
        result = worked_engine.query("Q1")
        reference = {}
        for r in visible_rows(worked_engine, "orderline"):
            if r["ol_delivery_d"] > _Q1_DELIVERY_CUTOFF:
                g = reference.setdefault(
                    r["ol_number"], {"sum_qty": 0, "sum_amount": 0, "count": 0}
                )
                g["sum_qty"] += r["ol_quantity"]
                g["sum_amount"] += r["ol_amount"]
                g["count"] += 1
        assert result.rows == reference

    def test_q9_matches_reference(self, worked_engine):
        result = worked_engine.query("Q9")
        small = {
            r["i_id"]
            for r in visible_rows(worked_engine, "item")
            if r["i_im_id"] <= _Q9_IM_CUTOFF
        }
        reference = sum(
            r["ol_amount"]
            for r in visible_rows(worked_engine, "orderline")
            if r["ol_i_id"] in small
        )
        assert result.rows["revenue"] == reference

    def test_queries_see_committed_updates(self, fresh_engine):
        engine = fresh_engine
        before = engine.query("Q6").rows["revenue"]
        engine.run_transactions(40, engine.make_driver(seed=8))
        after = engine.query("Q6").rows["revenue"]
        # New order lines were inserted with random predicates; the result
        # must match the reference either way.
        assert after == self.q6_reference(engine)
        assert isinstance(before, int)

    def test_query_timing_breakdown(self, worked_engine):
        result = worked_engine.query("Q6")
        t = result.timing
        assert t.total_time == pytest.approx(
            t.consistency_time + t.scan.total_time + t.cpu_time
        )
        assert t.scan.phases > 0

    def test_unknown_query(self, loaded_engine):
        with pytest.raises(QueryError, match="Q99"):
            loaded_engine.query("Q99")
        with pytest.raises(QueryError, match="Q99"):
            loaded_engine.query_batch(["Q6", "Q99"])
