"""Read-only TPC-C transactions: Order-Status and Stock-Level."""

import pytest

from repro.core.engine import PushTapEngine
from repro.oltp.tpcc import new_order, order_status, stock_level


def prime(engine, n=5, seed=21):
    driver = engine.make_driver(seed=seed)
    for _ in range(n):
        engine.execute_transaction(new_order(driver.next_new_order()))
    return driver


class TestOrderStatus:
    def test_reads_without_writes(self, fresh_engine):
        engine = fresh_engine
        driver = prime(engine)
        params = driver.next_order_status()
        assert params is not None
        result = engine.execute_transaction(order_status(params))
        assert result.rows_written == 0
        assert result.rows_read >= 2 + params.ol_cnt

    def test_breakdown_pinned(self):
        """Per-phase charges of one Order-Status over a delivered order
        (every line read walks a two-version chain). Values computed at
        94e14a0, when the lines went through ``TxnContext.read_many``;
        ``index`` is 12 probes at the constant ``PROBE_LINES`` charge."""
        engine = PushTapEngine.build(scale=2e-5, seed=3)
        driver = engine.make_driver(seed=3, delivery_fraction=0.2)
        engine.run_transactions(40, driver)
        params = driver.next_order_status()
        assert (params.o_id, params.ol_cnt) == (1211, 10)
        result = engine.execute_transaction(order_status(params))
        assert not result.aborted
        assert (result.rows_read, result.rows_written) == (12, 0)
        assert result.breakdown.as_dict() == {
            "index": 2418.753846153846,
            "alloc": 0.0,
            "compute": 4200.0,
            "chain": 48.0,
            "memory": 876.5679487179488,
            "relayout": 66.5,
            "flush": 30.0,
        }

    def test_requires_history(self, fresh_engine):
        driver = fresh_engine.make_driver(seed=22)
        assert driver.next_order_status() is None


class TestStockLevel:
    def test_counts_low_stock_items(self, fresh_engine):
        engine = fresh_engine
        driver = prime(engine, n=6, seed=23)
        params = driver.next_stock_level()
        assert params is not None
        result = engine.execute_transaction(stock_level(params))
        assert result.rows_written == 0
        # Reference: count distinct low-stock items over the same window.
        ts = engine.db.oracle.read_timestamp()
        low = set()
        for order in params.recent_orders:
            for number in range(1, order.ol_cnt + 1):
                ol_row = engine.db.index("orderline_pk").probe((order.o_id, number))
                line = engine.table("orderline").read_row(ol_row, ts)
                s_row = engine.db.index("stock_pk").probe((line["ol_supply_w_id"], line["ol_i_id"]))
                stock = engine.table("stock").read_row(s_row, ts)
                if stock["s_quantity"] < params.threshold:
                    low.add(line["ol_i_id"])
        assert result.value == len(low)

    def test_empty_driver(self, fresh_engine):
        driver = fresh_engine.make_driver(seed=24)
        assert driver.next_stock_level() is None


class TestMixedFiveTransactionWorkload:
    def test_full_mix_runs(self, fresh_engine):
        """All five TPC-C transaction types interleave cleanly."""
        engine = fresh_engine
        driver = engine.make_driver(seed=25)
        driver.delivery_fraction = 0.15
        ran = {"order_status": 0, "stock_level": 0}
        for step in range(50):
            if step % 10 == 7:
                params = driver.next_order_status()
                if params:
                    engine.execute_transaction(order_status(params))
                    ran["order_status"] += 1
            elif step % 10 == 9:
                params = driver.next_stock_level()
                if params:
                    engine.execute_transaction(stock_level(params))
                    ran["stock_level"] += 1
            else:
                engine.execute_transaction(driver.next_transaction())
        assert ran["order_status"] >= 3
        assert ran["stock_level"] >= 3
        # The analytical side still agrees with itself.
        q = engine.query("Q6")
        assert isinstance(q.rows["revenue"], int)
