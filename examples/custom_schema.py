#!/usr/bin/env python
"""Using PUSHtap with your own schema (not CH-benCHmark).

Builds an engine over the HTAPBench banking schema via
``PushTapEngine.build_custom``: you supply the table schemas, the key
columns your analytical queries scan, and the initial rows — the library
generates the compact-aligned layouts, places everything with
block-circulant rotation, and gives you MVCC transactions plus PIM
operators on top. ``index_keys`` maps a table to ``(index name, key
columns)``: the table keeps that unique hash index itself, keyed by one
column's value or several columns' tuple, through loads, inserts and
deletes.
"""

import numpy as np

from repro.core.engine import PushTapEngine
from repro.olap import plan as qplan
from repro.olap.engine import QueryTiming
from repro.olap.predicates import col, evaluate
from repro.report import format_table, format_time_ns
from repro.workloads.htapbench import htapbench_key_columns, htapbench_schema


def generate_rows(accounts=500, history=3000, seed=9):
    rng = np.random.RandomState(seed)
    return {
        "branch": [
            {"b_id": i + 1, "b_balance": 0, "b_region": i % 4,
             "b_name": b"branch", "b_address": b"addr"}
            for i in range(4)
        ],
        "teller": [
            {"t_id": i + 1, "t_branch_id": i % 4 + 1, "t_balance": 0, "t_name": b"t"}
            for i in range(20)
        ],
        "account": [
            {"a_id": i + 1, "a_branch_id": i % 4 + 1,
             "a_balance": int(rng.randint(0, 100_000)), "a_type": i % 3,
             "a_opened_d": 1000 + i % 500, "a_owner": b"owner", "a_notes": b"notes"}
            for i in range(accounts)
        ],
        "txn_history": [
            {"x_id": i + 1, "x_a_id": i % accounts + 1, "x_t_id": i % 20 + 1,
             "x_b_id": i % 4 + 1, "x_amount": int(rng.randint(1, 900)),
             "x_time": 1000 + i % 900, "x_kind": i % 4, "x_memo": b"memo"}
            for i in range(history)
        ],
    }


def main() -> None:
    schemas = htapbench_schema()
    key_columns = {name: htapbench_key_columns(name) for name in schemas}
    rows = generate_rows()

    engine = PushTapEngine.build_custom(
        schemas,
        key_columns,
        rows,
        block_rows=256,
        index_keys={"account": ("account_pk", ("a_id",))},
    )
    print("Custom HTAPBench engine built:")
    print(format_table(
        ["table", "rows", "parts", "key columns"],
        [
            [name, t.num_rows, t.layout.num_parts, len(t.layout.key_columns)]
            for name, t in engine.db.tables.items()
        ],
    ))

    # OLTP: a hand-written transfer transaction through the MVCC engine.
    def transfer(ctx):
        src = ctx.index_lookup("account_pk", 1)
        dst = ctx.index_lookup("account_pk", 2)
        a = ctx.read("account", src, ["a_balance"])
        b = ctx.read("account", dst, ["a_balance"])
        amount = min(500, a["a_balance"])
        ctx.update("account", src, {"a_balance": a["a_balance"] - amount})
        ctx.update("account", dst, {"a_balance": b["a_balance"] + amount})

    result = engine.oltp.execute(transfer)
    print(f"\ntransfer committed in {format_time_ns(result.total_time)} "
          f"({result.rows_written} versions created)")

    # OLAP: recent large withdrawals, summed on the PIM units.
    table = engine.table("txn_history")
    ts = engine.db.oracle.read_timestamp()
    table.snapshots.update_to(ts)
    timing = QueryTiming()
    predicate = (col("x_time") >= 1400) & (col("x_amount") >= 300) & (col("x_kind") == 2)
    mask = evaluate(predicate, engine.olap, table, timing)
    total = engine.olap.aggregate(
        table, "x_amount", qplan.masks_to_indices(mask), 1, timing
    )
    matches = int(mask.sum())
    print(f"\nanalytical scan: {matches} matching history rows, "
          f"sum = {int(total[0])}, query time {format_time_ns(timing.total_time)}")

    engine.defragment()
    print("defragmentation folded the delta region home; done.")


if __name__ == "__main__":
    main()
