"""Microbenchmarks of the core library primitives.

Not a paper figure — these track the reproduction's own performance:
row packing, the one-row storage calls a transaction runs, transaction
execution, snapshotting, a defragmentation pass, filter scans, two
queries, a whole build, and launch-request encoding.
"""

import pytest

from repro.bench.micro import run_primitive
from repro.core.config import SUBSTRATES
from repro.core.engine import PushTapEngine
from repro.format.binpack import compact_aligned_layout
from repro.olap.operators import FilterOperation
from repro.pim.pim_unit import Condition
from repro.pim.requests import LaunchRequest, OpType, decode_launch
from repro.workloads.chbench import all_queries, ch_table, key_columns_for


def test_bench_pack_row(benchmark):
    schema = ch_table("orderline")
    layout = compact_aligned_layout(
        schema, key_columns_for(all_queries(), "orderline"), 8, 0.6
    )
    row = {
        "ol_o_id": 1, "ol_d_id": 2, "ol_w_id": 3, "ol_number": 4,
        "ol_i_id": 5, "ol_supply_w_id": 6, "ol_delivery_d": 7,
        "ol_quantity": 8, "ol_amount": 9, "ol_dist_info": b"x" * 24,
    }
    packed = benchmark(layout.pack_row, row)
    assert layout.unpack_row(packed) == row


@pytest.fixture(scope="module")
def fresh_engine():
    """An engine no transaction has run on: its delta rows are free, so
    the one-row benchmarks below may store into them."""
    return PushTapEngine.build(scale=2e-5, block_rows=256)


def test_bench_write_row(benchmark, fresh_engine):
    """An inserted ORDERLINE row, as New-Order stores one per line."""
    storage = fresh_engine.table("orderline").storage
    row = storage.read_row(0, -1)
    benchmark(storage.write_row, 0, -1, row)
    assert storage.read_row(0, -1) == row


def test_bench_write_columns(benchmark, fresh_engine):
    """New-Order's STOCK update: the data slot installed as delta row 0
    with three columns replaced."""
    storage = fresh_engine.table("stock").storage
    changes = {"s_quantity": 17, "s_ytd": 40, "s_order_cnt": 3}
    benchmark(storage.write_columns, 0, -1, 0, changes)
    assert storage.read_row(0, 0, list(changes)) == changes


def test_bench_read_row(benchmark, fresh_engine):
    """New-Order's STOCK read."""
    storage = fresh_engine.table("stock").storage
    columns = ["s_quantity", "s_ytd", "s_order_cnt"]
    values = benchmark(storage.read_row, 0, -1, columns)
    assert list(values) == columns


def test_bench_layout_generation(benchmark):
    schema = ch_table("customer")
    keys = key_columns_for(all_queries(), "customer")
    layout = benchmark(compact_aligned_layout, schema, keys, 8, 0.6)
    assert layout.useful_bytes_per_row() == schema.row_bytes


def test_bench_transaction(benchmark, bench_engine):
    driver = bench_engine.make_driver(seed=41)
    result = benchmark(
        lambda: bench_engine.execute_transaction(driver.next_transaction())
    )
    assert result.total_time > 0


def test_bench_snapshot_update(benchmark, bench_engine):
    table = bench_engine.table("orderline")
    mvcc = table.mvcc

    def update_and_snapshot():
        ts = bench_engine.db.oracle.next_timestamp()
        mvcc.update(ts % 100, ts)
        return table.snapshots.update_to(ts)

    cost = benchmark(update_and_snapshot)
    assert cost.records >= 1


def test_bench_defrag(benchmark):
    """One defragmentation pass (§5.3) on a 3e-4 engine after 280
    transactions of the end-to-end mix: copy the newest versions back,
    fold the journal, free the delta rows and store the rebuilt bitmaps.
    The engine is rebuilt per round; only the pass is timed."""
    txns = 280

    def setup():
        engine = PushTapEngine.build(
            scale=3e-4, seed=7, defrag_period=txns, extra_rows=8 * txns + 4096
        )
        engine.run_transactions(
            txns, engine.make_driver(seed=8, payment_fraction=0.45, delivery_fraction=0.10)
        )
        assert engine.stats.defrag_runs == 0
        return (engine,), {}

    results = benchmark.pedantic(lambda engine: engine.defragment(), setup=setup, rounds=3)
    assert sum(r.moved_rows for r in results.values()) > 0


def test_bench_filter_scan(benchmark, bench_engine):
    engine = bench_engine
    table = engine.table("orderline")
    ts = engine.db.oracle.read_timestamp()
    table.snapshots.update_to(ts)
    rows = table.region_rows()

    def scan():
        op = FilterOperation(
            table.storage, engine.units, "ol_quantity", Condition("le", 5), rows
        )
        return engine.olap.executor.execute(op)

    result = benchmark(scan)
    assert result.phases >= 1


def test_bench_query_q6(benchmark, bench_engine):
    result = benchmark(bench_engine.query, "Q6")
    assert "revenue" in result.rows


def test_bench_query_q1(benchmark, bench_engine):
    """A filter, a group scan and its dictionary merge, then two
    aggregations over the merged group ids."""
    result = benchmark(bench_engine.query, "Q1")
    assert result.rows


def test_bench_build(benchmark):
    """Set-up at 1e-4: generate, lay out and store every CH-benCHmark
    table through its column runs, and index the packed keys."""
    engine = benchmark(PushTapEngine.build, scale=1e-4)
    assert engine.memory_bytes()["index_entries"] > 0


def test_bench_request_codec(benchmark):
    request = LaunchRequest(
        OpType.LS, {"op0_addr": 0xABCDE, "op0_len": 4096, "op0_stride": 8}
    )

    def roundtrip():
        return decode_launch(request.encode())

    decoded = benchmark(roundtrip)
    assert decoded.op == OpType.LS


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
def test_bench_primitive_scan_per_substrate(benchmark, substrate):
    """Host-side cost of one PrIM-style scan point on each substrate,
    plus the roofline acceptance check: streaming stays memory-bound at
    >=50% of the per-unit ceiling everywhere."""
    point = benchmark(run_primitive, substrate, "scan", 16384)
    assert point.bound == "memory"
    assert point.ceiling_ratio >= 0.5
