"""Randomized HTAP consistency: the engine vs an independent oracle.

A dict-based reference database mirrors every committed transaction's
effects through an *independent* implementation of the TPC-C semantics.
A seeded random interleaving of transactions, aborted transactions,
deliveries, analytical queries, and defragmentations must keep the
engine's visible state and query answers identical to the oracle's.
"""

import numpy as np
import pytest

from repro.core.engine import PushTapEngine
from repro.olap.queries import (
    _Q6_DELIVERY_HI,
    _Q6_DELIVERY_LO,
    _Q6_QTY_HI,
    _Q6_QTY_LO,
)
from repro.oltp.tpcc import delivery, new_order, payment
from repro.workloads.chbench import row_counts
from tests.test_workloads import generate_rows


class ReferenceOracle:
    """Plain-dict mirror of the TPC-C tables the workload touches."""

    def __init__(self, scale: float, seed: int):
        counts = row_counts(scale)
        self.customers = {}
        for row in generate_rows("customer", counts, seed):
            self.customers[(row["c_w_id"], row["c_d_id"], row["c_id"])] = dict(row)
        self.stock = {}
        for row in generate_rows("stock", counts, seed):
            self.stock[(row["s_w_id"], row["s_i_id"])] = dict(row)
        self.items = {
            row["i_id"]: dict(row) for row in generate_rows("item", counts, seed)
        }
        self.orderlines = [dict(r) for r in generate_rows("orderline", counts, seed)]
        self.orders = {r["o_id"]: dict(r) for r in generate_rows("order", counts, seed)}
        self.neworders = {r["no_o_id"] for r in generate_rows("neworder", counts, seed)}

    def apply_payment(self, p):
        c = self.customers[(p.w_id, p.d_id, p.c_id)]
        c["c_balance"] = max(0, c["c_balance"] - p.amount)
        c["c_ytd_payment"] += p.amount
        c["c_payment_cnt"] += 1

    def apply_new_order(self, p):
        self.orders[p.o_id] = {"o_ol_cnt": len(p.item_ids), "o_carrier_id": 0}
        self.neworders.add(p.o_id)
        for number, (i_id, qty) in enumerate(zip(p.item_ids, p.quantities), start=1):
            price = self.items[i_id]["i_price"]
            self.orderlines.append(
                {
                    "ol_o_id": p.o_id,
                    "ol_number": number,
                    "ol_delivery_d": p.entry_d,
                    "ol_quantity": qty,
                    "ol_amount": qty * price,
                }
            )
            s = self.stock[(p.supply_w_ids[number - 1], i_id)]
            new_qty = s["s_quantity"] - qty
            if new_qty < 10:
                new_qty += 91
            s["s_quantity"] = new_qty

    def apply_delivery(self, p):
        for order in p.orders:
            self.neworders.discard(order.o_id)
            self.orders[order.o_id]["o_carrier_id"] = p.carrier_id
            amount = 0
            for line in self.orderlines:
                if line["ol_o_id"] == order.o_id:
                    line["ol_delivery_d"] = p.delivery_d
                    amount += line["ol_amount"]
            c = self.customers[(order.w_id, order.d_id, order.c_id)]
            c["c_balance"] += amount
            c["c_delivery_cnt"] += 1

    def q6(self):
        return sum(
            line["ol_amount"]
            for line in self.orderlines
            if _Q6_DELIVERY_LO <= line["ol_delivery_d"] < _Q6_DELIVERY_HI
            and _Q6_QTY_LO <= line["ol_quantity"] <= _Q6_QTY_HI
        )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_interleaving_consistency(seed):
    scale = 2e-5
    engine = PushTapEngine.build(
        scale=scale, defrag_period=0, block_rows=256, seed=7, extra_rows=4_000
    )
    oracle = ReferenceOracle(scale, seed=7)
    driver = engine.make_driver(seed=seed)
    rng = np.random.RandomState(seed * 101)

    checks = 0
    for step in range(120):
        action = rng.randint(0, 10)
        if action < 4:
            params = driver.next_payment()
            engine.execute_transaction(payment(params))
            oracle.apply_payment(params)
        elif action < 7:
            params = driver.next_new_order()
            engine.execute_transaction(new_order(params))
            oracle.apply_new_order(params)
        elif action < 8:
            params = driver.next_delivery()
            if params is not None:
                engine.execute_transaction(delivery(params))
                oracle.apply_delivery(params)
        elif action < 9:
            # Aborted transaction: the oracle must NOT see it.
            params = driver.next_payment()
            inner = payment(params)

            def aborting(ctx, inner=inner):
                inner(ctx)
                ctx.abort()

            engine.oltp.execute(aborting)
        else:
            engine.defragment()

        if step % 20 == 19:
            checks += 1
            assert engine.query("Q6").rows["revenue"] == oracle.q6(), f"step {step}"
            # Spot-check a few customers through the MVCC read path.
            ts = engine.db.oracle.read_timestamp()
            for key in list(oracle.customers)[:5]:
                row_id = engine.db.index("customer_pk").probe(key)
                row = engine.table("customer").read_row(row_id, ts)
                ref = oracle.customers[key]
                for col in ("c_balance", "c_ytd_payment", "c_payment_cnt", "c_delivery_cnt"):
                    assert row[col] == ref[col], (key, col)
    assert checks >= 5
