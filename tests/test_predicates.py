"""Composable predicate trees compiled to filter scans."""

import pytest

from repro.errors import QueryError
from repro.olap import plan as qplan
from repro.olap.engine import QueryTiming
from repro.olap.predicates import Comparison, col, evaluate


def visible_rows(engine, table):
    runtime = engine.table(table)
    ts = engine.db.oracle.read_timestamp()
    return [runtime.read_row(rid, ts) for rid in range(runtime.num_rows)]


def matched(mask):
    return int(mask.sum())


@pytest.fixture()
def orderline(worked_engine):
    table = worked_engine.table("orderline")
    ts = worked_engine.db.oracle.read_timestamp()
    table.snapshots.update_to(ts)
    return table


class TestBuilder:
    def test_comparisons(self):
        assert (col("x") >= 5) == Comparison("x", "ge", 5)
        assert (col("x") < 5) == Comparison("x", "lt", 5)
        assert (col("x") == 5) == Comparison("x", "eq", 5)
        assert (col("x") != 5) == Comparison("x", "ne", 5)

    def test_between_expands(self):
        p = col("x").between(2, 8)
        leaves = list(p.leaves())
        assert Comparison("x", "ge", 2) in leaves
        assert Comparison("x", "le", 8) in leaves

    def test_composition_structure(self):
        p = (col("a") > 1) & ((col("b") < 2) | ~(col("c") == 3))
        assert len(list(p.leaves())) == 3


class TestEvaluation:
    def test_conjunction_matches_reference(self, worked_engine, orderline):
        timing = QueryTiming()
        p = col("ol_quantity").between(2, 8) & (col("ol_delivery_d") >= 1500)
        mask = evaluate(p, worked_engine.olap, orderline, timing)
        reference = sum(
            1
            for r in visible_rows(worked_engine, "orderline")
            if 2 <= r["ol_quantity"] <= 8 and r["ol_delivery_d"] >= 1500
        )
        assert matched(mask) == reference

    def test_disjunction_matches_reference(self, worked_engine, orderline):
        timing = QueryTiming()
        p = (col("ol_quantity") <= 2) | (col("ol_quantity") >= 9)
        mask = evaluate(p, worked_engine.olap, orderline, timing)
        reference = sum(
            1
            for r in visible_rows(worked_engine, "orderline")
            if r["ol_quantity"] <= 2 or r["ol_quantity"] >= 9
        )
        assert matched(mask) == reference

    def test_negation_excludes_invisible_rows(self, worked_engine, orderline):
        timing = QueryTiming()
        p = ~(col("ol_quantity") <= 5)
        mask = evaluate(p, worked_engine.olap, orderline, timing)
        reference = sum(
            1
            for r in visible_rows(worked_engine, "orderline")
            if not r["ol_quantity"] <= 5
        )
        assert matched(mask) == reference
        # Stale delta rows must NOT reappear under negation.
        total_visible = orderline.snapshots.visible_count()
        assert matched(mask) <= total_visible

    def test_normal_column_leaf_uses_cpu_fallback(self, worked_engine):
        engine = worked_engine
        history = engine.table("history")
        ts = engine.db.oracle.read_timestamp()
        history.snapshots.update_to(ts)
        timing = QueryTiming()
        p = (col("h_amount") >= 1000) & (col("h_date") >= 1500)
        mask = evaluate(p, engine.olap, history, timing)
        reference = sum(
            1
            for r in visible_rows(engine, "history")
            if r["h_amount"] >= 1000 and r["h_date"] >= 1500
        )
        assert matched(mask) == reference
        assert timing.cpu_time > 0  # the fallback charged CPU time

    def test_duplicate_leaves_scan_once(self, worked_engine, orderline):
        timing = QueryTiming()
        leaf = col("ol_quantity") <= 5
        p = leaf & leaf
        evaluate(p, worked_engine.olap, orderline, timing)
        # One leaf -> one filter scan's worth of phases (not two).
        single = QueryTiming()
        evaluate(leaf, worked_engine.olap, orderline, single)
        assert timing.scan.phases == single.scan.phases

    def test_composes_with_aggregation(self, worked_engine, orderline):
        timing = QueryTiming()
        p = col("ol_quantity").between(1, 3)
        mask = evaluate(p, worked_engine.olap, orderline, timing)
        total = worked_engine.olap.aggregate(
            orderline, "ol_amount", qplan.masks_to_indices(mask), 1, timing
        )
        reference = sum(
            r["ol_amount"]
            for r in visible_rows(worked_engine, "orderline")
            if 1 <= r["ol_quantity"] <= 3
        )
        assert int(total[0]) == reference

    def test_unknown_column_rejected(self, worked_engine, orderline):
        with pytest.raises(QueryError):
            evaluate(col("nope") >= 1, worked_engine.olap, orderline, QueryTiming())
