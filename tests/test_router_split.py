"""The router's split, operation by operation, against the builders it replaced.

``ShardRouter.split`` builds each shard's part of a cross-shard Payment,
New-Order or Delivery by rebuilding the :mod:`repro.oltp.tpcc` closure
with an ownership predicate. The five sub-transaction builders the
router used to hand-write are kept below verbatim as the reference,
with the dispatch that chose between them. For every shard the new
part must make the same ``TxnContext`` calls, with the same arguments
and in the same order, and carry the same ``txn_name``. A recording
fake context stands in for the engine; reads answer values derived
from the call, so every computed update and insert is compared too.
"""

import zlib
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.cluster import ShardRouter, shard_of
from repro.errors import TransactionError
from repro.oltp.engine import TxnContext
from repro.oltp.tpcc import (
    DeliveryOrder,
    DeliveryParams,
    NewOrderParams,
    PaymentParams,
    delivery,
    new_order,
    payment,
)


def _payment_at_warehouse(params: PaymentParams) -> Callable[[TxnContext], None]:
    """The paying-warehouse half of a remote Payment: warehouse and
    district YTD absorb the amount and the history row lands here (its
    ``h_w_id`` is the paying warehouse — same row the full closure
    inserts)."""

    def txn(ctx: TxnContext) -> None:
        w_row = ctx.index_lookup("warehouse_pk", params.w_id)
        warehouse = ctx.read("warehouse", w_row, ["w_ytd", "w_tax"])
        ctx.update("warehouse", w_row, {"w_ytd": warehouse["w_ytd"] + params.amount})
        d_row = ctx.index_lookup("district_pk", (params.w_id, params.d_id))
        district = ctx.read("district", d_row, ["d_ytd", "d_tax"])
        ctx.update("district", d_row, {"d_ytd": district["d_ytd"] + params.amount})
        ctx.insert(
            "history",
            {
                "h_c_id": params.c_id,
                "h_c_d_id": params.customer_d_id,
                "h_c_w_id": params.customer_w_id,
                "h_d_id": params.d_id,
                "h_w_id": params.w_id,
                "h_date": params.h_date,
                "h_amount": params.amount,
                "h_data": b"payment",
            },
        )

    txn.txn_name = "payment"
    txn.params = params
    return txn


def _payment_at_customer(params: PaymentParams) -> Callable[[TxnContext], None]:
    """The customer-home half of a remote Payment: balance, YTD payment
    and payment count, exactly as the full closure computes them."""

    def txn(ctx: TxnContext) -> None:
        c_row = ctx.index_lookup(
            "customer_pk",
            (params.customer_w_id, params.customer_d_id, params.c_id),
        )
        customer = ctx.read(
            "customer", c_row, ["c_balance", "c_ytd_payment", "c_payment_cnt"]
        )
        new_balance = max(0, customer["c_balance"] - params.amount)
        ctx.update(
            "customer",
            c_row,
            {
                "c_balance": new_balance,
                "c_ytd_payment": customer["c_ytd_payment"] + params.amount,
                "c_payment_cnt": customer["c_payment_cnt"] + 1,
            },
        )

    txn.txn_name = "payment_remote"
    txn.params = params
    return txn


def _new_order_home(
    params: NewOrderParams, home: int, num_shards: int
) -> Callable[[TxnContext], None]:
    """The home-shard part of a cross-shard New-Order.

    Everything except the stock updates of lines supplied by a *remote
    shard*: warehouse/district/customer reads, the d_next_o_id bump, the
    ORDER and NEWORDER inserts, every ITEM price read, every ORDERLINE
    insert (all lines live at the ordering warehouse), and the stock
    updates of home-shard-supplied lines (including nominally remote
    warehouses that happen to reside on the home shard).
    """

    def txn(ctx: TxnContext) -> None:
        w_row = ctx.index_lookup("warehouse_pk", params.w_id)
        ctx.read("warehouse", w_row, ["w_tax"])
        d_row = ctx.index_lookup("district_pk", (params.w_id, params.d_id))
        district = ctx.read("district", d_row, ["d_tax", "d_next_o_id"])
        ctx.update("district", d_row, {"d_next_o_id": district["d_next_o_id"] + 1})
        c_row = ctx.index_lookup(
            "customer_pk", (params.w_id, params.d_id, params.c_id)
        )
        ctx.read("customer", c_row, ["c_discount", "c_credit"])
        ctx.insert(
            "order",
            {
                "o_id": params.o_id,
                "o_d_id": params.d_id,
                "o_w_id": params.w_id,
                "o_c_id": params.c_id,
                "o_entry_d": params.entry_d,
                "o_carrier_id": 0,
                "o_ol_cnt": len(params.item_ids),
                "o_all_local": int(all(s == params.w_id for s in params.supply_w_ids)),
            },
        )
        ctx.insert(
            "neworder",
            {"no_o_id": params.o_id, "no_d_id": params.d_id, "no_w_id": params.w_id},
        )
        for number, (i_id, s_w, qty) in enumerate(
            zip(params.item_ids, params.supply_w_ids, params.quantities), start=1
        ):
            i_row = ctx.index_lookup("item_pk", i_id)
            item = ctx.read("item", i_row, ["i_price"])
            if shard_of(s_w, num_shards) == home:
                s_row = ctx.index_lookup("stock_pk", (s_w, i_id))
                stock = ctx.read(
                    "stock", s_row, ["s_quantity", "s_ytd", "s_order_cnt"]
                )
                new_qty = stock["s_quantity"] - qty
                if new_qty < 10:
                    new_qty += 91
                ctx.update(
                    "stock",
                    s_row,
                    {
                        "s_quantity": new_qty,
                        "s_ytd": stock["s_ytd"] + qty,
                        "s_order_cnt": stock["s_order_cnt"] + 1,
                    },
                )
            ctx.insert(
                "orderline",
                {
                    "ol_o_id": params.o_id,
                    "ol_d_id": params.d_id,
                    "ol_w_id": params.w_id,
                    "ol_number": number,
                    "ol_i_id": i_id,
                    "ol_supply_w_id": s_w,
                    "ol_delivery_d": params.entry_d,
                    "ol_quantity": qty,
                    "ol_amount": qty * item["i_price"],
                    "ol_dist_info": b"neworder",
                },
            )

    txn.txn_name = "new_order"
    txn.o_id = params.o_id
    txn.params = params
    return txn


def _new_order_remote_stock(
    params: NewOrderParams, line_indices: List[int]
) -> Callable[[TxnContext], None]:
    """The remote-shard part of a cross-shard New-Order: the stock
    updates of the lines this shard supplies (and nothing else — the
    ORDERLINE rows live at the ordering warehouse)."""

    def txn(ctx: TxnContext) -> None:
        for index in line_indices:
            i_id = params.item_ids[index]
            s_w = params.supply_w_ids[index]
            qty = params.quantities[index]
            s_row = ctx.index_lookup("stock_pk", (s_w, i_id))
            stock = ctx.read("stock", s_row, ["s_quantity", "s_ytd", "s_order_cnt"])
            new_qty = stock["s_quantity"] - qty
            if new_qty < 10:
                new_qty += 91
            ctx.update(
                "stock",
                s_row,
                {
                    "s_quantity": new_qty,
                    "s_ytd": stock["s_ytd"] + qty,
                    "s_order_cnt": stock["s_order_cnt"] + 1,
                },
            )

    txn.txn_name = "new_order_remote"
    txn.params = params
    return txn


def _delivery_subset(
    params: DeliveryParams, orders: List
) -> Callable[[TxnContext], None]:
    """A Delivery restricted to the orders resident on one shard (every
    operation of a delivered order touches only its home warehouse)."""
    from repro.oltp.tpcc import delivery

    sub = delivery(DeliveryParams(params.carrier_id, params.delivery_d, orders))
    return sub


def oracle_split(txn, num_shards: int) -> Dict[int, Callable[[TxnContext], None]]:
    """The reference split: the router's former per-type dispatch."""
    params = txn.params
    name = txn.txn_name
    if name == "payment":
        pay = shard_of(params.w_id, num_shards)
        cust = shard_of(params.customer_w_id, num_shards)
        return {
            pay: _payment_at_warehouse(params),
            cust: _payment_at_customer(params),
        }
    if name == "new_order":
        home = shard_of(params.w_id, num_shards)
        remote_lines: Dict[int, List[int]] = {}
        for index, s_w in enumerate(params.supply_w_ids):
            shard = shard_of(s_w, num_shards)
            if shard != home:
                remote_lines.setdefault(shard, []).append(index)
        subs: Dict[int, Callable[[TxnContext], None]] = {
            home: _new_order_home(params, home, num_shards)
        }
        for shard, indices in remote_lines.items():
            subs[shard] = _new_order_remote_stock(params, indices)
        return subs
    groups: Dict[int, List] = {}
    for order in params.orders:
        groups.setdefault(shard_of(order.w_id, num_shards), []).append(order)
    return {
        shard: _delivery_subset(params, orders) for shard, orders in groups.items()
    }


class RecordingContext:
    """Records every ``TxnContext`` call a closure makes."""

    def __init__(self) -> None:
        self.calls: List[tuple] = []

    @staticmethod
    def _value(*key) -> int:
        return zlib.crc32(repr(key).encode()) % 10_000

    def index_lookup(self, index, key):
        self.calls.append(("index_lookup", index, key))
        return self._value(index, key)

    def read(self, table, row_id, columns=None):
        self.calls.append(("read", table, row_id, list(columns)))
        return {column: self._value(table, row_id, column) for column in columns}

    def update(self, table, row_id, changes):
        self.calls.append(("update", table, row_id, dict(changes)))

    def insert(self, table, values):
        self.calls.append(("insert", table, dict(values)))
        return len(self.calls)

    def delete(self, table, row_id):
        self.calls.append(("delete", table, row_id))


def _calls(txn) -> List[tuple]:
    ctx = RecordingContext()
    txn(ctx)
    return ctx.calls


def _cross_shard_txns(router: ShardRouter, seed: int = 7, rounds: int = 40):
    """Seeded Payments, New-Orders and Deliveries that span shards.

    Two warehouses per shard, so a nominally remote warehouse can live
    on the home shard (its operations stay in the home part)."""
    rng = np.random.RandomState(seed + router.num_shards)

    def draw(low, high):
        return int(rng.randint(low, high))

    def warehouse():
        return draw(1, router.warehouses + 1)

    txns = []
    for _ in range(rounds):
        txns.append(
            payment(
                PaymentParams(
                    w_id=warehouse(),
                    d_id=draw(1, 11),
                    c_id=draw(1, 3000),
                    amount=draw(1, 5000),
                    h_date=draw(0, 1000),
                    c_w_id=warehouse(),
                    c_d_id=draw(1, 11),
                )
            )
        )
        w_id = warehouse()
        lines = draw(5, 16)
        txns.append(
            new_order(
                NewOrderParams(
                    w_id=w_id,
                    d_id=draw(1, 11),
                    c_id=draw(1, 3000),
                    o_id=draw(1, 10_000),
                    entry_d=draw(0, 1000),
                    item_ids=[draw(1, 1000) for _ in range(lines)],
                    supply_w_ids=[
                        w_id if rng.random_sample() < 0.7 else warehouse()
                        for _ in range(lines)
                    ],
                    quantities=[draw(1, 11) for _ in range(lines)],
                )
            )
        )
        orders = [
            DeliveryOrder(
                o_id=draw(1, 10_000),
                w_id=warehouse(),
                d_id=draw(1, 11),
                c_id=draw(1, 3000),
                ol_cnt=draw(5, 16),
            )
            for _ in range(draw(1, 6))
        ]
        txns.append(delivery(DeliveryParams(draw(1, 11), draw(0, 1000), orders)))
    return [txn for txn in txns if len(router.involved_shards(txn)) > 1]


@pytest.mark.parametrize("shards", [2, 3, 4])
def test_split_matches_reference_builders(shards):
    router = ShardRouter(shards, 2 * shards)
    txns = _cross_shard_txns(router)
    widest: Dict[str, int] = {}
    for txn in txns:
        reference = oracle_split(txn, shards)
        parts = router.split(txn)
        assert list(parts) == list(reference)
        assert router.home_shard(txn) == next(iter(reference))
        assert router.involved_shards(txn) == sorted(reference)
        for shard, part in parts.items():
            assert part.txn_name == reference[shard].txn_name
            assert _calls(part) == _calls(reference[shard]), (txn.txn_name, shard)
        widest[txn.txn_name] = max(widest.get(txn.txn_name, 0), len(parts))
    # Every type splits, and New-Order 3 ways once there are 3 shards.
    assert widest["payment"] == 2
    assert widest["delivery"] >= 2
    assert widest["new_order"] >= min(shards, 3)


def test_unrestricted_closure_is_the_union_of_its_parts():
    """Summed over shards, the parts make the full closure's calls."""
    router = ShardRouter(3, 6)
    for txn in _cross_shard_txns(router, rounds=10):
        whole = sorted(map(repr, _calls(txn)))
        parts = sorted(
            repr(call) for part in router.split(txn).values() for call in _calls(part)
        )
        assert parts == whole


def test_routing_errors_raise_transaction_error():
    router = ShardRouter(2, 4)
    with pytest.raises(TransactionError, match="without params"):
        router.involved_shards(lambda ctx: None)
    with pytest.raises(TransactionError, match="empty delivery"):
        router.home_shard(delivery(DeliveryParams(1, 1, [])))
