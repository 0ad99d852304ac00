"""TPC-C transactions: Payment, New-Order, and Delivery (§7.1).

The paper simulates the two transaction types that make up ~90 % of the
TPC-C mix (Payment and New-Order) on a DBx1000-style MVCC engine; this
reproduction adds Delivery as an extension since it exercises the MVCC
delete path and NEWORDER index removal. The :class:`TPCCDriver`
generates parameter sets consistent with the deterministic data
generator's key assignment and produces transaction closures for
:meth:`repro.oltp.engine.OLTPEngine.execute`.

Each parameter set names the warehouses its transaction touches
(``warehouses``, home first), and the Payment, New-Order and Delivery
factories take an optional ownership predicate that runs only the
operations on rows of owned warehouses. The cluster router splits a
cross-shard transaction by building the same closure once per shard,
restricted to that shard's warehouses.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import TransactionError
from repro.oltp.engine import TxnContext
from repro.workloads.tpcc_gen import DATE_EPOCH, DATE_HORIZON

__all__ = [
    "PaymentParams",
    "NewOrderParams",
    "DeliveryOrder",
    "DeliveryParams",
    "OrderStatusParams",
    "StockLevelParams",
    "TPCCDriver",
    "FACTORIES",
    "rebuild_transaction",
    "payment",
    "new_order",
    "delivery",
    "order_status",
    "stock_level",
    "NEW_ORDER_REMOTE_RATE",
    "PAYMENT_REMOTE_RATE",
]

#: TPC-C's nominal remote rates (§2.4.1.5 / §2.5.1.2): ~1 % of New-Order
#: lines are supplied by a remote warehouse; ~15 % of Payments are made
#: at a warehouse other than the customer's home. ``remote_fraction``
#: scales both (0 disables cross-warehouse traffic, 1 is the spec rate).
NEW_ORDER_REMOTE_RATE = 0.01
PAYMENT_REMOTE_RATE = 0.15

@dataclass(frozen=True)
class PaymentParams:
    """Inputs of one Payment transaction.

    ``w_id``/``d_id`` name the warehouse the payment is *made at* (its
    YTD counters absorb the amount); ``c_w_id``/``c_d_id`` name the
    customer's home. They default to the paying warehouse (the ~85 %
    local case); a remote payment sets them to a different warehouse.
    """

    w_id: int
    d_id: int
    c_id: int
    amount: int
    h_date: int
    c_w_id: Optional[int] = None
    c_d_id: Optional[int] = None

    @property
    def customer_w_id(self) -> int:
        """The customer's home warehouse (defaults to the paying one)."""
        return self.w_id if self.c_w_id is None else self.c_w_id

    @property
    def customer_d_id(self) -> int:
        """The customer's home district (defaults to the paying one)."""
        return self.d_id if self.c_d_id is None else self.c_d_id

    @property
    def warehouses(self) -> Tuple[int, ...]:
        """The warehouses its rows live at, the paying one (home) first."""
        return (self.w_id, self.customer_w_id)


@dataclass(frozen=True)
class NewOrderParams:
    """Inputs of one New-Order transaction."""

    w_id: int
    d_id: int
    c_id: int
    o_id: int
    entry_d: int
    item_ids: List[int]
    supply_w_ids: List[int]
    quantities: List[int]

    @property
    def warehouses(self) -> Tuple[int, ...]:
        """The ordering warehouse (home), then each line's supplier."""
        return (self.w_id, *self.supply_w_ids)


def payment(
    params: PaymentParams, owns: Optional[Callable[[int], bool]] = None
) -> Callable[[TxnContext], None]:
    """Build the Payment transaction closure (TPC-C §2.5).

    ``owns`` restricts it to the warehouses one shard owns (None: every
    warehouse). The WAREHOUSE, DISTRICT and HISTORY rows live at the
    paying warehouse ``w_id``, the CUSTOMER row at ``customer_w_id``; a
    part without the paying warehouse is ``payment_remote``.
    """
    at_w = owns is None or owns(params.w_id)
    at_c = owns is None or owns(params.customer_w_id)

    def txn(ctx: TxnContext) -> None:
        if at_w:
            w_row = ctx.index_lookup("warehouse_pk", params.w_id)
            warehouse = ctx.read("warehouse", w_row, ["w_ytd", "w_tax"])
            ctx.update("warehouse", w_row, {"w_ytd": warehouse["w_ytd"] + params.amount})

            d_row = ctx.index_lookup("district_pk", (params.w_id, params.d_id))
            district = ctx.read("district", d_row, ["d_ytd", "d_tax"])
            ctx.update("district", d_row, {"d_ytd": district["d_ytd"] + params.amount})

        if at_c:
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

        if at_w:
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

    txn.txn_name = "payment" if at_w else "payment_remote"
    txn.params = params
    return txn


def new_order(
    params: NewOrderParams, owns: Optional[Callable[[int], bool]] = None
) -> Callable[[TxnContext], None]:
    """Build the New-Order transaction closure (TPC-C §2.4).

    ``owns`` restricts it to the warehouses one shard owns (None: every
    warehouse). Every row but STOCK lives at the ordering warehouse
    ``w_id``; a line's STOCK row lives at its supply warehouse. A part
    without the ordering warehouse is ``new_order_remote``.
    """
    if not (len(params.item_ids) == len(params.supply_w_ids) == len(params.quantities)):
        raise TransactionError("new_order: item/supply/quantity lengths differ")
    home = owns is None or owns(params.w_id)
    supplied = [owns is None or owns(s_w) for s_w in params.supply_w_ids]

    def txn(ctx: TxnContext) -> None:
        if home:
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
        for number, (i_id, s_w, qty, here) in enumerate(
            zip(params.item_ids, params.supply_w_ids, params.quantities, supplied),
            start=1,
        ):
            if home:
                i_row = ctx.index_lookup("item_pk", i_id)
                item = ctx.read("item", i_row, ["i_price"])
            if here:
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
            if home:
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

    txn.txn_name = "new_order" if home else "new_order_remote"
    txn.o_id = params.o_id
    txn.params = params
    return txn


@dataclass(frozen=True)
class DeliveryOrder:
    """One undelivered order a Delivery transaction processes."""

    o_id: int
    w_id: int
    d_id: int
    c_id: int
    ol_cnt: int


@dataclass(frozen=True)
class DeliveryParams:
    """Inputs of one Delivery transaction (simplified: a batch of pending
    new orders rather than per-district oldest-order selection)."""

    carrier_id: int
    delivery_d: int
    orders: List[DeliveryOrder]

    @property
    def warehouses(self) -> Tuple[int, ...]:
        """Each order's warehouse, the first order's (home) first."""
        return tuple(order.w_id for order in self.orders)


def delivery(
    params: DeliveryParams, owns: Optional[Callable[[int], bool]] = None
) -> Callable[[TxnContext], None]:
    """Build the Delivery transaction closure (TPC-C §2.7, simplified).

    For each pending order: delete its NEWORDER row (tombstone + index
    removal), stamp the ORDER with the carrier, set every ORDERLINE's
    delivery date, and credit the customer's balance. Every row an order
    touches lives at its ``w_id``, so ``owns`` (None: every warehouse)
    restricts the batch to the orders one shard owns.
    """
    orders = [o for o in params.orders if owns is None or owns(o.w_id)]

    def txn(ctx: TxnContext) -> None:
        for order in orders:
            no_row = ctx.index_lookup("neworder_pk", order.o_id)
            ctx.delete("neworder", no_row)
            o_row = ctx.index_lookup("order_pk", order.o_id)
            ctx.read("order", o_row, ["o_c_id", "o_ol_cnt"])
            ctx.update("order", o_row, {"o_carrier_id": params.carrier_id})
            amount = 0
            for number in range(1, order.ol_cnt + 1):
                ol_row = ctx.index_lookup("orderline_pk", (order.o_id, number))
                line = ctx.read("orderline", ol_row, ["ol_amount"])
                amount += line["ol_amount"]
                ctx.update("orderline", ol_row, {"ol_delivery_d": params.delivery_d})
            c_row = ctx.index_lookup(
                "customer_pk", (order.w_id, order.d_id, order.c_id)
            )
            customer = ctx.read("customer", c_row, ["c_balance", "c_delivery_cnt"])
            ctx.update(
                "customer",
                c_row,
                {
                    "c_balance": customer["c_balance"] + amount,
                    "c_delivery_cnt": customer["c_delivery_cnt"] + 1,
                },
            )

    txn.txn_name = "delivery"
    txn.params = params
    return txn


@dataclass(frozen=True)
class OrderStatusParams:
    """Inputs of one Order-Status transaction (read-only)."""

    w_id: int
    d_id: int
    c_id: int
    o_id: int
    ol_cnt: int

    @property
    def warehouses(self) -> Tuple[int, ...]:
        """Every row it reads lives at its one warehouse."""
        return (self.w_id,)


def order_status(params: OrderStatusParams) -> Callable[[TxnContext], None]:
    """Build the Order-Status transaction closure (TPC-C §2.6, read-only).

    Reads the customer, their most recent order, and that order's lines.
    """

    def txn(ctx: TxnContext) -> None:
        c_row = ctx.index_lookup(
            "customer_pk", (params.w_id, params.d_id, params.c_id)
        )
        ctx.read("customer", c_row, ["c_balance", "c_first", "c_last"])
        o_row = ctx.index_lookup("order_pk", params.o_id)
        ctx.read("order", o_row, ["o_entry_d", "o_carrier_id"])
        ol_rows = [
            ctx.index_lookup("orderline_pk", (params.o_id, number))
            for number in range(1, params.ol_cnt + 1)
        ]
        columns = ["ol_i_id", "ol_supply_w_id", "ol_quantity", "ol_amount", "ol_delivery_d"]
        for ol_row in ol_rows:
            ctx.read("orderline", ol_row, columns)

    txn.txn_name = "order_status"
    txn.params = params
    return txn


@dataclass(frozen=True)
class StockLevelParams:
    """Inputs of one Stock-Level transaction (read-only, simplified)."""

    w_id: int
    d_id: int
    threshold: int
    recent_orders: List[DeliveryOrder]

    @property
    def warehouses(self) -> None:
        """Not known until it runs: its STOCK reads follow each order
        line's ``ol_supply_w_id``."""
        return None


def stock_level(params: StockLevelParams) -> Callable[[TxnContext], None]:
    """Build the Stock-Level transaction closure (TPC-C §2.8, simplified).

    Counts distinct items of the district's recent orders whose stock
    quantity is below the threshold. The recent-order window comes from
    the driver (we have no ordered secondary index over orders).
    """

    def txn(ctx: TxnContext) -> None:
        d_row = ctx.index_lookup("district_pk", (params.w_id, params.d_id))
        ctx.read("district", d_row, ["d_next_o_id"])
        low = set()
        for order in params.recent_orders:
            for number in range(1, order.ol_cnt + 1):
                ol_row = ctx.index_lookup("orderline_pk", (order.o_id, number))
                line = ctx.read("orderline", ol_row, ["ol_i_id", "ol_supply_w_id"])
                s_row = ctx.index_lookup(
                    "stock_pk", (line["ol_supply_w_id"], line["ol_i_id"])
                )
                stock = ctx.read("stock", s_row, ["s_quantity"])
                if stock["s_quantity"] < params.threshold:
                    low.add(line["ol_i_id"])
        ctx.result = len(low)

    txn.txn_name = "stock_level"
    txn.params = params
    return txn


#: Transaction factories by name — the parallel execution layer ships
#: ``(txn_name, params)`` pairs to shard workers (closures don't pickle)
#: and rebuilds the closure there.
FACTORIES: Dict[str, Callable] = {
    "payment": payment,
    "new_order": new_order,
    "delivery": delivery,
    "order_status": order_status,
    "stock_level": stock_level,
}


def rebuild_transaction(
    txn_name: str, params, owns: Optional[Callable[[int], bool]] = None
) -> Callable[[TxnContext], None]:
    """Rebuild a transaction closure from its name and frozen params;
    ``owns`` restricts a Payment, New-Order or Delivery to the
    warehouses one shard owns."""
    factory = FACTORIES.get(txn_name)
    if factory is None:
        raise TransactionError(f"unknown transaction {txn_name!r}")
    return factory(params) if owns is None else factory(params, owns)


class TPCCDriver:
    """Generates parameter sets consistent with the data generator.

    ``payment_fraction`` controls the Payment/New-Order mix (TPC-C's
    nominal mix is roughly even between them once the other three
    transaction types are excluded — the paper simulates exactly these
    two, §7.1). ``delivery_fraction`` optionally adds Delivery
    transactions draining the orders this driver previously generated.

    ``remote_fraction`` scales TPC-C's nominal remote-warehouse rates
    (:data:`NEW_ORDER_REMOTE_RATE` per order line,
    :data:`PAYMENT_REMOTE_RATE` per payment): 1.0 is the spec mix, 0
    disables cross-warehouse traffic entirely. Remote decisions draw
    from a *separate* seed-derived stream, so changing the fraction
    never perturbs the main parameter stream — and with a single
    warehouse the stream is never consulted at all, which keeps
    single-warehouse runs bit-identical across every fraction.

    ``home_warehouses`` optionally pins the driver's customers to a
    subset of warehouses (a cluster shard's residents); remote lines
    and payments may still reach any warehouse. ``None`` (or the full
    set) means no affinity and preserves the legacy customer draw.
    """

    def __init__(
        self,
        counts: Dict[str, int],
        seed: int = 11,
        payment_fraction: float = 0.5,
        delivery_fraction: float = 0.0,
        max_order_lines: int = 15,
        delivery_batch: int = 5,
        o_id_offset: int = 0,
        o_id_stride: int = 1,
        remote_fraction: float = 1.0,
        home_warehouses: Optional[List[int]] = None,
    ) -> None:
        if not 0.0 <= payment_fraction <= 1.0:
            raise TransactionError("payment_fraction must be in [0, 1]")
        if not 0.0 <= delivery_fraction <= 1.0 - payment_fraction:
            raise TransactionError(
                "delivery_fraction must fit in the remaining mix share"
            )
        if o_id_stride < 1 or not 0 <= o_id_offset < o_id_stride:
            raise TransactionError(
                "o_id_offset must be in [0, o_id_stride) with stride >= 1"
            )
        max_rate = max(NEW_ORDER_REMOTE_RATE, PAYMENT_REMOTE_RATE)
        if remote_fraction < 0.0 or remote_fraction * max_rate > 1.0:
            raise TransactionError(
                "remote_fraction must be >= 0 and keep the scaled remote "
                f"rates within [0, 1] (max {1.0 / max_rate:.3f})"
            )
        self.counts = dict(counts)
        self.rng = np.random.RandomState(seed)
        self.payment_fraction = payment_fraction
        self.delivery_fraction = delivery_fraction
        self.remote_fraction = float(remote_fraction)
        self.max_order_lines = max_order_lines
        self.delivery_batch = delivery_batch
        # Remote decisions get their own stream (CRC-32 derivation, the
        # tpcc_gen idiom) so the main parameter stream stays put.
        self._remote_rng = np.random.RandomState(
            (int(seed) ^ zlib.crc32(b"remote")) & 0x7FFF_FFFF
        )
        warehouses = self.counts["warehouse"]
        self._home_warehouses: Optional[List[int]] = None
        self._home_cumulative: List[int] = []
        if home_warehouses is not None:
            homes = sorted(set(int(w) for w in home_warehouses))
            if not homes:
                raise TransactionError("home_warehouses must not be empty")
            if homes[0] < 1 or homes[-1] > warehouses:
                raise TransactionError(
                    f"home_warehouses must be within [1, {warehouses}]"
                )
            if len(homes) < warehouses:
                # A proper subset changes the customer draw; the full set
                # keeps the legacy single-draw path (bit-compatible).
                self._home_warehouses = homes
                total = 0
                for w in homes:
                    total += self._customers_at(w)
                    self._home_cumulative.append(total)
        #: Remote-traffic observability (surfaced in ClusterReport).
        self.payments = 0
        self.remote_payments = 0
        self.new_orders = 0
        self.remote_new_orders = 0
        self.order_lines = 0
        self.remote_order_lines = 0
        self._undelivered: List[DeliveryOrder] = []
        #: Orders created by this driver (known exact line counts), kept
        #: for the read-only Order-Status / Stock-Level transactions.
        self._recent_orders: List[DeliveryOrder] = []
        # New order ids must not collide with any preloaded order or
        # new-order key (the generator assigns 1..N in both tables).
        # Offset/stride give concurrent drivers (one per serving tenant)
        # disjoint id spaces over the same database.
        self._o_id_stride = o_id_stride
        self._next_o_id = max(counts["order"], counts["neworder"]) + 1 + o_id_offset

    # -- key derivation matching repro.workloads.tpcc_gen ----------------
    def _customers_at(self, w: int) -> int:
        """Customers whose home is warehouse ``w`` (generator assignment)."""
        total = self.counts["customer"]
        warehouses = self.counts["warehouse"]
        if w > total:
            return 0
        return (total - w) // warehouses + 1

    def _random_customer(self) -> tuple:
        warehouses = self.counts["warehouse"]
        if self._home_warehouses is None:
            i = int(self.rng.randint(0, self.counts["customer"]))
        else:
            # Customer i lives at warehouse i % W + 1, so a warehouse's
            # residents are an arithmetic progression; one draw over the
            # affinity set's total population picks uniformly among them.
            r = int(self.rng.randint(0, self._home_cumulative[-1]))
            prev = 0
            for w, acc in zip(self._home_warehouses, self._home_cumulative):
                if r < acc:
                    i = (w - 1) + (r - prev) * warehouses
                    break
                prev = acc
        w = i % warehouses + 1
        d = i % 10 + 1
        return w, d, i + 1

    def _random_item(self) -> int:
        return int(self.rng.randint(1, self.counts["item"] + 1))

    def _local_item(self, w: int) -> int:
        """A random item *supplied by* warehouse ``w`` (the generator
        stocks item j only at warehouse (j-1) % W + 1)."""
        total = self.counts["item"]
        warehouses = self.counts["warehouse"]
        if w > total:
            return self._random_item()
        n = (total - w) // warehouses + 1
        k = int(self.rng.randint(0, n))
        return w + k * warehouses

    def _remote_warehouse(self, home: int) -> int:
        """A random warehouse other than ``home`` (remote stream)."""
        warehouses = self.counts["warehouse"]
        k = int(self._remote_rng.randint(1, warehouses))
        return (home - 1 + k) % warehouses + 1

    def _supply_warehouse(self, i_id: int) -> int:
        return (i_id - 1) % self.counts["warehouse"] + 1

    # -- parameter generation --------------------------------------------
    def next_payment(self) -> PaymentParams:
        """Generate one Payment parameter set."""
        w, d, c = self._random_customer()
        pay_w, pay_d = w, d
        c_w: Optional[int] = None
        c_d: Optional[int] = None
        p_remote = PAYMENT_REMOTE_RATE * self.remote_fraction
        if (
            self.counts["warehouse"] > 1
            and p_remote > 0.0
            and self._remote_rng.random_sample() < p_remote
        ):
            pay_w = self._remote_warehouse(w)
            pay_d = int(self._remote_rng.randint(1, 11))
            c_w, c_d = w, d
            self.remote_payments += 1
        self.payments += 1
        return PaymentParams(
            w_id=pay_w,
            d_id=pay_d,
            c_id=c,
            amount=int(self.rng.randint(1, 5000)),
            h_date=int(self.rng.randint(DATE_EPOCH, DATE_HORIZON)),
            c_w_id=c_w,
            c_d_id=c_d,
        )

    def next_new_order(self) -> NewOrderParams:
        """Generate one New-Order parameter set."""
        w, d, c = self._random_customer()
        ol_cnt = int(self.rng.randint(5, self.max_order_lines + 1))
        if self.counts["warehouse"] <= 1:
            # Single warehouse: every item is home-supplied; keep the
            # legacy draw sequence exactly (seeded baselines depend on it).
            items = sorted({self._random_item() for _ in range(ol_cnt)})
        else:
            p_remote = NEW_ORDER_REMOTE_RATE * self.remote_fraction
            chosen = set()
            for _ in range(ol_cnt):
                supply = w
                if p_remote > 0.0 and self._remote_rng.random_sample() < p_remote:
                    supply = self._remote_warehouse(w)
                chosen.add(self._local_item(supply))
            items = sorted(chosen)
        o_id = self._next_o_id
        self._next_o_id += self._o_id_stride
        supply_w_ids = [self._supply_warehouse(i) for i in items]
        params = NewOrderParams(
            w_id=w,
            d_id=d,
            c_id=c,
            o_id=o_id,
            entry_d=int(self.rng.randint(DATE_EPOCH, DATE_HORIZON)),
            item_ids=items,
            supply_w_ids=supply_w_ids,
            quantities=[int(self.rng.randint(1, 11)) for _ in items],
        )
        remote_lines = sum(1 for s in supply_w_ids if s != w)
        self.new_orders += 1
        self.order_lines += len(items)
        self.remote_order_lines += remote_lines
        if remote_lines:
            self.remote_new_orders += 1
        record = DeliveryOrder(o_id=o_id, w_id=w, d_id=d, c_id=c, ol_cnt=len(items))
        self._undelivered.append(record)
        self._recent_orders.append(record)
        if len(self._recent_orders) > 100:
            self._recent_orders.pop(0)
        return params

    def next_order_status(self) -> Optional[OrderStatusParams]:
        """Generate an Order-Status over an order this driver created."""
        if not self._recent_orders:
            return None
        order = self._recent_orders[int(self.rng.randint(0, len(self._recent_orders)))]
        return OrderStatusParams(
            w_id=order.w_id,
            d_id=order.d_id,
            c_id=order.c_id,
            o_id=order.o_id,
            ol_cnt=order.ol_cnt,
        )

    def next_stock_level(self, window: int = 5) -> Optional[StockLevelParams]:
        """Generate a Stock-Level over this driver's most recent orders."""
        if not self._recent_orders:
            return None
        recent = self._recent_orders[-window:]
        return StockLevelParams(
            w_id=recent[-1].w_id,
            d_id=recent[-1].d_id,
            threshold=int(self.rng.randint(10, 60)),
            recent_orders=recent,
        )

    def next_delivery(self) -> Optional[DeliveryParams]:
        """Generate a Delivery over pending new orders (None if none)."""
        if not self._undelivered:
            return None
        batch = self._undelivered[: self.delivery_batch]
        del self._undelivered[: len(batch)]
        return DeliveryParams(
            carrier_id=int(self.rng.randint(1, 11)),
            delivery_d=int(self.rng.randint(DATE_EPOCH, DATE_HORIZON)),
            orders=batch,
        )

    def note_abort(self, txn: Callable[[TxnContext], None]) -> None:
        """Forget bookkeeping for a transaction that aborted.

        A New-Order that rolled back never created its ORDER/NEWORDER
        rows, so the driver must not route a later Delivery (or
        Order-Status / Stock-Level) at its order id — those lookups
        would fail on keys that were never inserted.
        """
        o_id = getattr(txn, "o_id", None)
        if o_id is None:
            return
        self._undelivered = [o for o in self._undelivered if o.o_id != o_id]
        self._recent_orders = [o for o in self._recent_orders if o.o_id != o_id]

    def next_transaction(self) -> Callable[[TxnContext], None]:
        """Generate the next transaction of the mix."""
        draw = self.rng.random_sample()
        if draw < self.payment_fraction:
            return payment(self.next_payment())
        if draw < self.payment_fraction + self.delivery_fraction:
            params = self.next_delivery()
            if params is not None:
                return delivery(params)
        return new_order(self.next_new_order())
