#!/usr/bin/env python
"""A tour of the transaction engine: MVCC versions, aborts, deliveries.

Walks a single customer's row through its MVCC life-cycle: committed
Payments create delta-region versions; an aborted Payment rolls back
without a trace; a Delivery tombstones NEWORDER rows; defragmentation
folds everything back into the data region.
"""

from repro import PushTapEngine
from repro.oltp.tpcc import delivery, new_order, payment
from repro.report import format_table


def customer_state(engine, key):
    ts = engine.db.oracle.read_timestamp()
    row_id = engine.db.index("customer_pk").probe(key)
    row = engine.table("customer").read_row(row_id, ts)
    chain = engine.table("customer").mvcc.chain_length(row_id)
    return row, chain


def main() -> None:
    engine = PushTapEngine.build(scale=3e-5, defrag_period=0, block_rows=256)
    driver = engine.make_driver(seed=12)

    params = driver.next_payment()
    key = (params.w_id, params.d_id, params.c_id)
    print(f"Following customer {key} through its MVCC life-cycle.\n")

    states = []
    row, chain = customer_state(engine, key)
    states.append(["initial", row["c_balance"], row["c_payment_cnt"], chain])

    engine.execute_transaction(payment(params))
    row, chain = customer_state(engine, key)
    states.append(["after Payment #1 (committed)", row["c_balance"], row["c_payment_cnt"], chain])

    from repro.oltp.tpcc import PaymentParams

    params2 = PaymentParams(key[0], key[1], key[2], amount=500, h_date=params.h_date)
    engine.execute_transaction(payment(params2))
    row, chain = customer_state(engine, key)
    states.append(["after Payment #2 (committed)", row["c_balance"], row["c_payment_cnt"], chain])

    # An aborted payment leaves no trace — the rollback pops the version.
    inner = payment(PaymentParams(key[0], key[1], key[2], 9_999, params.h_date))

    def aborting(ctx):
        inner(ctx)
        ctx.abort("credit check failed")

    result = engine.oltp.execute(aborting)
    row, chain = customer_state(engine, key)
    states.append([f"after Payment #3 (ABORTED={result.aborted})", row["c_balance"], row["c_payment_cnt"], chain])

    print(format_table(
        ["event", "c_balance", "c_payment_cnt", "version chain"], states
    ))

    print("\nNew order + Delivery (tombstones the NEWORDER row):")
    no_params = driver.next_new_order()
    engine.execute_transaction(new_order(no_params))
    d_params = driver.next_delivery()
    neworder = engine.table("neworder")
    neworder.snapshots.update_to(engine.db.oracle.read_timestamp())
    before = neworder.snapshots.visible_count()
    engine.execute_transaction(delivery(d_params))
    neworder.snapshots.update_to(engine.db.oracle.read_timestamp())
    after = neworder.snapshots.visible_count()
    print(f"  visible NEWORDER rows: {before} -> {after} "
          f"({len(neworder.mvcc.tombstoned_rows())} tombstoned)")

    print("\nDefragmentation folds the delta region home:")
    customer = engine.table("customer")
    print(f"  before: delta high-water {customer.mvcc.delta.high_water_rows} rows, "
          f"{customer.mvcc.stale_version_count()} stale versions")
    engine.defragment()
    row, chain = customer_state(engine, key)
    print(f"  after:  delta empty, customer chain length {chain}, "
          f"balance still {row['c_balance']}")


if __name__ == "__main__":
    main()
