"""TPC-H analytical queries over CH-benCHmark: Q1, Q6, Q9 (§7.1).

The paper evaluates three representative queries:

* **Q1** — aggregation-heavy: grouped sums over ORDERLINE;
* **Q6** — selection-heavy: a multi-predicate filtered sum over ORDERLINE;
* **Q9** — join-heavy: ITEM ⋈ ORDERLINE with a filtered build side.

Beyond the paper's three, four more CH queries are executable — Q4
(semi-join count), Q12 (join + grouped count), Q14 (revenue share), and
Q17 (join + conjunctive filter + sum) — exercising the remaining operator
compositions.

Each query runs snapshot-consistently: the snapshot is brought up to the
query's read timestamp first (its cost lands in the *consistency* bar of
Fig. 9b), then the PIM operators scan under that snapshot.

Q9 is simplified relative to full TPC-H (no per-year grouping through a
second join with ORDER); the paper's "join-heavy" characterization — two
hash scans, a bucket exchange, and a probe-side aggregation — is retained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.core.database import Database
from repro.errors import QueryError
from repro.olap import plan as qplan
from repro.olap.engine import OLAPEngine, QueryTiming
from repro.pim.pim_unit import Condition
from repro.workloads.tpcc_gen import DATE_EPOCH, DATE_HORIZON

__all__ = [
    "QueryResult",
    "q1",
    "q4",
    "q6",
    "q9",
    "q12",
    "q14",
    "q17",
    "QUERIES",
    "run_query",
]

#: Default predicate anchors derived from the synthetic date range.
_Q1_DELIVERY_CUTOFF = DATE_EPOCH + (DATE_HORIZON - DATE_EPOCH) // 4
_Q6_DELIVERY_LO = DATE_EPOCH + (DATE_HORIZON - DATE_EPOCH) // 4
_Q6_DELIVERY_HI = DATE_EPOCH + 3 * (DATE_HORIZON - DATE_EPOCH) // 4
_Q6_QTY_LO = 2
_Q6_QTY_HI = 8
_Q9_IM_CUTOFF = 5_000
_Q4_ENTRY_LO = DATE_EPOCH + (DATE_HORIZON - DATE_EPOCH) // 3
_Q4_ENTRY_HI = DATE_EPOCH + 2 * (DATE_HORIZON - DATE_EPOCH) // 3
_Q12_DELIVERY_LO = DATE_EPOCH + (DATE_HORIZON - DATE_EPOCH) // 2
_Q12_DELIVERY_HI = DATE_EPOCH + 3 * (DATE_HORIZON - DATE_EPOCH) // 4
_Q14_PROMO_CUTOFF = 3_000
_Q17_IM_CUTOFF = 5_000
_Q17_QTY_MAX = 3


@dataclass
class QueryResult:
    """Result rows and timing of one analytical query."""

    name: str
    rows: Dict = field(default_factory=dict)
    timing: QueryTiming = field(default_factory=QueryTiming)

    @property
    def total_time(self) -> float:
        """End-to-end query time in ns."""
        return self.timing.total_time


def q1(olap: OLAPEngine, db: Database, ts: int) -> QueryResult:
    """Q1: SUM(ol_quantity), SUM(ol_amount), COUNT(*) grouped by
    ol_number, over order lines delivered after a cutoff."""
    result = QueryResult("Q1")
    table = db.table("orderline")
    olap.snapshot(table, ts, result.timing)
    rows = table.region_rows()
    delivered = olap.filter(
        table,
        "ol_delivery_d",
        Condition("gt", _Q1_DELIVERY_CUTOFF),
        result.timing,
        rows,
    )
    _, merged = olap.group(table, "ol_number", result.timing, rows)
    indices = qplan.apply_mask_to_indices(merged.indices, delivered.mask)
    sum_qty = olap.aggregate(
        table, "ol_quantity", indices, merged.num_groups, result.timing, rows
    )
    sum_amount = olap.aggregate(
        table, "ol_amount", indices, merged.num_groups, result.timing, rows
    )
    counts = np.bincount(
        indices[indices != qplan.INVALID_GROUP], minlength=merged.num_groups
    )
    result.timing.add_cpu_bytes(indices.nbytes, olap.config.total_cpu_bandwidth)
    for g, key in enumerate(merged.keys):
        if counts[g]:
            result.rows[int(key)] = {
                "sum_qty": int(sum_qty[g]),
                "sum_amount": int(sum_amount[g]),
                "count": int(counts[g]),
            }
    return result


def q6(olap: OLAPEngine, db: Database, ts: int) -> QueryResult:
    """Q6: SUM(ol_amount) with delivery-date range and quantity range."""
    result = QueryResult("Q6")
    table = db.table("orderline")
    olap.snapshot(table, ts, result.timing)
    rows = table.region_rows()
    filters = [
        olap.filter(table, "ol_delivery_d", Condition("ge", _Q6_DELIVERY_LO), result.timing, rows),
        olap.filter(table, "ol_delivery_d", Condition("lt", _Q6_DELIVERY_HI), result.timing, rows),
        olap.filter(table, "ol_quantity", Condition("ge", _Q6_QTY_LO), result.timing, rows),
        olap.filter(table, "ol_quantity", Condition("le", _Q6_QTY_HI), result.timing, rows),
    ]
    total = olap.filtered_sum(table, filters, "ol_amount", result.timing, rows)
    result.rows["revenue"] = total
    return result


def q9(olap: OLAPEngine, db: Database, ts: int) -> QueryResult:
    """Q9: SUM(ol_amount) of order lines joining items with small i_im_id."""
    result = QueryResult("Q9")
    item = db.table("item")
    orderline = db.table("orderline")
    olap.snapshot(item, ts, result.timing)
    olap.snapshot(orderline, ts, result.timing)
    item_rows = item.region_rows()
    ol_rows = orderline.region_rows()
    item_filter = olap.filter(
        item, "i_im_id", Condition("le", _Q9_IM_CUTOFF), result.timing, item_rows
    )
    build = olap.hash_scan(item, "i_id", result.timing, item_rows)
    probe = olap.hash_scan(orderline, "ol_i_id", result.timing, ol_rows)
    join = olap.join(build, probe, result.timing, build_mask=item_filter.mask)
    indices = qplan.masks_to_indices(join.probe_mask)
    total = olap.aggregate(orderline, "ol_amount", indices, 1, result.timing, ol_rows)
    result.rows["revenue"] = int(total[0])
    result.rows["matches"] = join.matches
    return result


def q4(olap: OLAPEngine, db: Database, ts: int) -> QueryResult:
    """Q4 (order priority, simplified): COUNT of orders entered in a date
    range having at least one order line — a semi-join ORDER ⋉ ORDERLINE."""
    result = QueryResult("Q4")
    order = db.table("order")
    orderline = db.table("orderline")
    olap.snapshot(order, ts, result.timing)
    olap.snapshot(orderline, ts, result.timing)
    o_rows = order.region_rows()
    ol_rows = orderline.region_rows()
    entered = olap.filter(
        order, "o_entry_d", Condition("ge", _Q4_ENTRY_LO), result.timing, o_rows
    )
    entered_hi = olap.filter(
        order, "o_entry_d", Condition("lt", _Q4_ENTRY_HI), result.timing, o_rows
    )
    mask, cpu_bytes = qplan.combine_masks([entered, entered_hi])
    result.timing.add_cpu_bytes(cpu_bytes, olap.config.total_cpu_bandwidth)
    build = olap.hash_scan(order, "o_id", result.timing, o_rows)
    probe = olap.hash_scan(orderline, "ol_o_id", result.timing, ol_rows)
    join = olap.join(build, probe, result.timing, build_mask=mask)
    result.rows["order_count"] = join.matched_build_rows
    return result


def q12(olap: OLAPEngine, db: Database, ts: int) -> QueryResult:
    """Q12 (shipping modes, simplified): orders grouped by o_ol_cnt,
    counting those with an order line delivered inside a date range."""
    result = QueryResult("Q12")
    order = db.table("order")
    orderline = db.table("orderline")
    olap.snapshot(order, ts, result.timing)
    olap.snapshot(orderline, ts, result.timing)
    o_rows = order.region_rows()
    ol_rows = orderline.region_rows()
    delivered = [
        olap.filter(orderline, "ol_delivery_d", Condition("ge", _Q12_DELIVERY_LO), result.timing, ol_rows),
        olap.filter(orderline, "ol_delivery_d", Condition("lt", _Q12_DELIVERY_HI), result.timing, ol_rows),
    ]
    ol_mask, cpu_bytes = qplan.combine_masks(delivered)
    result.timing.add_cpu_bytes(cpu_bytes, olap.config.total_cpu_bandwidth)
    # Build on the filtered order lines; probing ORDER flags matching orders.
    build = olap.hash_scan(orderline, "ol_o_id", result.timing, ol_rows)
    probe = olap.hash_scan(order, "o_id", result.timing, o_rows)
    join = olap.join(build, probe, result.timing, build_mask=ol_mask)
    _, merged = olap.group(order, "o_ol_cnt", result.timing, o_rows)
    indices = qplan.apply_mask_to_indices(merged.indices, join.probe_mask)
    counts = np.bincount(
        indices[indices != qplan.INVALID_GROUP], minlength=merged.num_groups
    )
    result.timing.add_cpu_bytes(merged.indices.nbytes, olap.config.total_cpu_bandwidth)
    result.rows = {
        int(key): int(counts[g]) for g, key in enumerate(merged.keys) if counts[g]
    }
    return result


def q14(olap: OLAPEngine, db: Database, ts: int) -> QueryResult:
    """Q14 (promotion effect, simplified): revenue share of order lines
    whose item is promotional (small i_im_id)."""
    result = QueryResult("Q14")
    item = db.table("item")
    orderline = db.table("orderline")
    olap.snapshot(item, ts, result.timing)
    olap.snapshot(orderline, ts, result.timing)
    item_rows = item.region_rows()
    ol_rows = orderline.region_rows()
    promo_items = olap.filter(
        item, "i_im_id", Condition("le", _Q14_PROMO_CUTOFF), result.timing, item_rows
    )
    build = olap.hash_scan(item, "i_id", result.timing, item_rows)
    probe = olap.hash_scan(orderline, "ol_i_id", result.timing, ol_rows)
    join = olap.join(build, probe, result.timing, build_mask=promo_items.mask)
    promo_indices = qplan.masks_to_indices(join.probe_mask)
    promo = olap.aggregate(orderline, "ol_amount", promo_indices, 1, result.timing, ol_rows)
    everything = olap.filter(
        orderline, "ol_amount", Condition("ge", 0), result.timing, ol_rows
    )
    total = olap.aggregate(
        orderline,
        "ol_amount",
        qplan.masks_to_indices(everything.mask),
        1,
        result.timing,
        ol_rows,
    )
    result.rows["promo_revenue"] = int(promo[0])
    result.rows["total_revenue"] = int(total[0])
    result.rows["promo_share"] = (
        int(promo[0]) / int(total[0]) if total[0] else 0.0
    )
    return result


def q17(olap: OLAPEngine, db: Database, ts: int) -> QueryResult:
    """Q17 (small-quantity orders, simplified): SUM(ol_amount) of
    small-quantity order lines whose item has a small i_im_id."""
    result = QueryResult("Q17")
    item = db.table("item")
    orderline = db.table("orderline")
    olap.snapshot(item, ts, result.timing)
    olap.snapshot(orderline, ts, result.timing)
    item_rows = item.region_rows()
    ol_rows = orderline.region_rows()
    item_filter = olap.filter(
        item, "i_im_id", Condition("le", _Q17_IM_CUTOFF), result.timing, item_rows
    )
    build = olap.hash_scan(item, "i_id", result.timing, item_rows)
    probe = olap.hash_scan(orderline, "ol_i_id", result.timing, ol_rows)
    join = olap.join(build, probe, result.timing, build_mask=item_filter.mask)
    small_qty = olap.filter(
        orderline, "ol_quantity", Condition("le", _Q17_QTY_MAX), result.timing, ol_rows
    )
    total = olap.aggregate(
        orderline,
        "ol_amount",
        qplan.masks_to_indices(join.probe_mask & small_qty.mask),
        1,
        result.timing,
        ol_rows,
    )
    result.rows["revenue"] = int(total[0])
    return result


#: Query registry by name.
QUERIES = {"Q1": q1, "Q4": q4, "Q6": q6, "Q9": q9, "Q12": q12, "Q14": q14, "Q17": q17}


def run_query(name: str, olap: OLAPEngine, db: Database, ts: int) -> QueryResult:
    """Run a registered query by name."""
    try:
        fn = QUERIES[name]
    except KeyError:
        raise QueryError(f"unknown executable query {name!r} (have {sorted(QUERIES)})") from None
    return fn(olap, db, ts)
