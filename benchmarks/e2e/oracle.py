"""Row-at-a-time reference answers for Q1 and Q6.

The benchmark's output check: after a workload ran, the engine's final
Q1 and Q6 answers must equal what a plain loop over the MVCC-visible
ORDERLINE rows computes. The loop reads each row through
``engine.table("orderline").read_row`` — one row, one timestamp, no
scan operator, no snapshot bitmap, no PIM unit — so it shares none of
the code the queries run through. The predicate constants restate the
query definitions (CH-benCHmark dates run over [1000, 3000)); they are
written out here on purpose, so a change to a query's predicate in
``src/`` shows as a failed check rather than being followed silently.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.errors import TransactionError

__all__ = ["q1_q6_reference"]

Q1_DELIVERED_AFTER = 1500
Q6_DELIVERED_FROM, Q6_DELIVERED_BEFORE = 1500, 2500
Q6_QUANTITY_MIN, Q6_QUANTITY_MAX = 2, 8

_COLUMNS = ("ol_number", "ol_quantity", "ol_amount", "ol_delivery_d")


def q1_q6_reference(engines: Iterable) -> Tuple[Dict, Dict]:
    """``(Q1 rows, Q6 rows)`` over the union of the engines' order lines.

    One engine for a single instance, every shard for a cluster (the
    shards partition ORDERLINE, so the union is the whole table). Each
    engine is read at its own current read timestamp, which is what its
    next query would see.
    """
    q1: Dict[int, Dict[str, int]] = {}
    revenue = 0
    for engine in engines:
        table = engine.table("orderline")
        ts = engine.db.oracle.read_timestamp()
        for row_id in range(table.num_rows):
            try:
                row = table.read_row(row_id, ts, _COLUMNS)
            except TransactionError:
                continue  # deleted at or before ts: not visible
            delivered = row["ol_delivery_d"]
            if delivered > Q1_DELIVERED_AFTER:
                group = q1.setdefault(
                    row["ol_number"], {"sum_qty": 0, "sum_amount": 0, "count": 0}
                )
                group["sum_qty"] += row["ol_quantity"]
                group["sum_amount"] += row["ol_amount"]
                group["count"] += 1
            if (
                Q6_DELIVERED_FROM <= delivered < Q6_DELIVERED_BEFORE
                and Q6_QUANTITY_MIN <= row["ol_quantity"] <= Q6_QUANTITY_MAX
            ):
                revenue += row["ol_amount"]
    return q1, {"revenue": revenue}
