"""Incremental view maintenance: Z-sets, view equivalence, scheduling.

The core property (ISSUE 6): every registered view's answer is
bit-identical to the full-rescan answer at the same timestamp, on
randomized seeded update/insert/delete histories, with defragmentation
in the middle.
"""

import random

import numpy as np
import pytest

from repro.core.engine import PushTapEngine
from repro.errors import QueryError
from repro.format.schema import Column, TableSchema
from repro.ivm.manager import IVMManager
from repro.ivm.views import make_view
from repro.ivm.zset import ZSet
from repro.olap.engine import QueryTiming
from repro.olap.queries import run_query
from repro.serve.scheduler import HTAPScheduler
from repro.telemetry import registry as telemetry
from repro.workloads.tpcc_gen import DATE_EPOCH, DATE_HORIZON

QUERIES = ("Q1", "Q6", "Q9")
DATE_SPAN = DATE_HORIZON - DATE_EPOCH

SCHEMAS = {
    "orderline": TableSchema.of(
        "orderline",
        [
            Column("ol_number", 4),
            Column("ol_quantity", 4),
            Column("ol_amount", 4),
            Column("ol_delivery_d", 4),
            Column("ol_i_id", 4),
        ],
    ),
    "item": TableSchema.of("item", [Column("i_id", 4), Column("i_im_id", 4)]),
}
KEYS = {
    "orderline": ["ol_number", "ol_quantity", "ol_amount", "ol_delivery_d", "ol_i_id"],
    "item": ["i_id", "i_im_id"],
}


def random_orderline(rng):
    return {
        "ol_number": rng.randrange(8),
        "ol_quantity": rng.randrange(12),
        "ol_amount": rng.randrange(10_000),
        "ol_delivery_d": DATE_EPOCH + rng.randrange(DATE_SPAN),
        "ol_i_id": rng.randrange(1, 40),
    }


def random_item(rng):
    return {"i_id": rng.randrange(1, 40), "i_im_id": rng.randrange(10_000)}


def build_toy_engine(rng):
    """A small engine whose tables cover the CH-bench view shapes.

    TPC-C never deletes orderline/item rows, so the randomized histories
    run over a custom build instead — same schemas as far as the views
    care, but with deletes in play.
    """
    rows = {
        "orderline": [random_orderline(rng) for _ in range(150)],
        "item": [random_item(rng) for _ in range(40)],
    }
    engine = PushTapEngine.build_custom(
        SCHEMAS, KEYS, rows, block_rows=256, defrag_period=400
    )
    return engine, {
        "orderline": list(range(150)),
        "item": list(range(40)),
    }


def run_random_ops(engine, rng, live, count):
    """Commit ``count`` random single-write transactions."""
    for _ in range(count):
        roll = rng.random()
        if roll < 0.45:
            row_id = rng.choice(live["orderline"])
            changes = {
                "ol_quantity": rng.randrange(12),
                "ol_amount": rng.randrange(10_000),
                "ol_delivery_d": DATE_EPOCH + rng.randrange(DATE_SPAN),
            }
            engine.oltp.execute(
                lambda ctx, r=row_id, c=changes: ctx.update("orderline", r, c)
            )
        elif roll < 0.62:
            values = random_orderline(rng)
            engine.oltp.execute(lambda ctx, v=values: ctx.insert("orderline", v))
            live["orderline"].append(engine.table("orderline").mvcc.num_rows - 1)
        elif roll < 0.75 and len(live["orderline"]) > 30:
            row_id = live["orderline"].pop(rng.randrange(len(live["orderline"])))
            engine.oltp.execute(lambda ctx, r=row_id: ctx.delete("orderline", r))
        elif roll < 0.88:
            row_id = rng.choice(live["item"])
            changes = {"i_im_id": rng.randrange(10_000)}
            engine.oltp.execute(
                lambda ctx, r=row_id, c=changes: ctx.update("item", r, c)
            )
        elif roll < 0.95:
            values = random_item(rng)
            engine.oltp.execute(lambda ctx, v=values: ctx.insert("item", v))
            live["item"].append(engine.table("item").mvcc.num_rows - 1)
        elif len(live["item"]) > 10:
            row_id = live["item"].pop(rng.randrange(len(live["item"])))
            engine.oltp.execute(lambda ctx, r=row_id: ctx.delete("item", r))


def run_scenario(seed, rounds=6, ops_per_round=30, defrag_round=3):
    """Random history with flush-point comparisons; returns the answers."""
    rng = random.Random(seed)
    engine, live = build_toy_engine(rng)
    engine.enable_ivm()
    answers = []
    for round_index in range(rounds):
        run_random_ops(engine, rng, live, ops_per_round)
        if round_index == defrag_round:
            engine.defragment()
            run_random_ops(engine, rng, live, ops_per_round // 2)
        ts = engine.db.oracle.read_timestamp()
        for name in QUERIES:
            rescan = run_query(name, engine.olap, engine.db, ts)
            incremental = engine.ivm.answer(name, ts)
            assert incremental.rows == rescan.rows, (seed, round_index, name, ts)
            answers.append((round_index, name, ts, incremental.rows))
    return answers


def keyed(keys, weights):
    """A one-column batch: ``keys`` beside ``weights``."""
    return ZSet({"k": np.asarray(keys, dtype=np.uint64)}, weights)


def weights_by_key(zset):
    return dict(zip(zset.columns["k"].tolist(), zset.weights.tolist()))


class TestZSet:
    def test_weights_annihilate(self):
        z = ZSet.concat([keyed([7], [1]), keyed([7], [2])]).consolidate(["k"])
        assert weights_by_key(z) == {7: 3}
        z = ZSet.concat([z, keyed([7], [-3])]).consolidate(["k"])
        assert len(z) == 0
        assert z.columns["k"].size == 0

    def test_items_only_nonzero(self):
        z = keyed([1, 2, 2], [1, 1, -1]).consolidate(["k"])
        assert weights_by_key(z) == {1: 1}
        assert z.weights.dtype == np.int64

    def test_unknown_view_rejected(self):
        with pytest.raises(QueryError):
            make_view("Q99")


class TestRandomizedEquivalence:
    """ISSUE 6 acceptance: incremental == rescan at every flush ts."""

    @pytest.mark.parametrize("seed", [1, 5])
    def test_views_match_rescan_vectorized(self, seed):
        run_scenario(seed)


class TestAccounting:
    """What a refresh charges is what it read, on either code path."""

    @pytest.mark.parametrize("seed", [2, 9])
    def test_folded_charge_is_rows_gathered(self, seed, monkeypatch):
        """After every ``answer()`` of a random history (defrag mid-way,
        so both the delta fold and the resync run): the rows charged are
        the rows handed to ``read_rows``, the simulated time is exactly
        those counts priced, and the refreshed view holds the state a
        freshly registered view computes from scratch."""
        rng = random.Random(seed)
        engine, live = build_toy_engine(rng)
        ivm = engine.enable_ivm()
        bandwidth = engine.olap.config.total_cpu_bandwidth
        gathered = []  # (rows, bytes per row) of every read_rows call
        for runtime in (engine.table("orderline"), engine.table("item")):
            storage = runtime.storage
            original = storage.read_rows

            def spy(region, rows, columns, _original=original, _storage=storage):
                width = sum(_storage.layout.schema.column(c).width for c in columns)
                gathered.append((len(rows), width))
                return _original(region, rows, columns)

            monkeypatch.setattr(storage, "read_rows", spy)
        for round_index in range(6):
            run_random_ops(engine, rng, live, 25)
            if round_index == 3:
                engine.defragment()
                run_random_ops(engine, rng, live, 10)
            ts = engine.db.oracle.read_timestamp()
            for name in QUERIES:
                dirty = ivm._dirty[name]
                records = 0 if dirty else sum(
                    engine.table(table).mvcc.log_count_between(ivm._view_ts[name], ts)
                    for table in ivm.views[name].columns
                )
                before = ivm.report()["views"][name]
                del gathered[:]
                result = ivm.answer(name, ts)
                after = ivm.report()["views"][name]
                folded = sum(rows for rows, _ in gathered)
                assert after["folded_rows"] - before["folded_rows"] == folded
                assert after["applied_records"] - before["applied_records"] == records
                assert after["recomputes"] - before["recomputes"] == int(dirty)
                expected = QueryTiming()
                expected.add_cpu_bytes(
                    records * 16 + sum(rows * width for rows, width in gathered), bandwidth
                )
                expected.cpu_time += folded * 0.5
                assert result.timing == expected
            fresh = IVMManager(engine)
            for name in QUERIES:
                fresh.register(name)
                assert vars(fresh.views[name]) == vars(ivm.views[name])
                assert fresh.views[name].rows() == ivm.views[name].rows()

    def test_folded_rows_counter_matches_report(self):
        """The telemetry counter books resync folds too: it equals the
        report after a history with a defragmentation in it."""
        telemetry.disable()
        tel = telemetry.enable()
        try:
            rng = random.Random(4)
            engine, live = build_toy_engine(rng)
            ivm = engine.enable_ivm()
            for round_index in range(4):
                run_random_ops(engine, rng, live, 20)
                if round_index == 1:
                    engine.defragment()
                ts = engine.db.oracle.read_timestamp()
                for name in QUERIES:
                    ivm.answer(name, ts)
            report = ivm.report()
            assert report["recomputes"] == 2 * len(QUERIES)
            assert tel.counters["ivm.folded_rows"].value == report["folded_rows"]
            assert tel.counters["ivm.applied_records"].value == report["applied_records"]
            assert tel.counters["ivm.recomputes"].value == report["recomputes"]
            totals = {key: value for key, value in report.items() if key != "views"}
            for counts in [totals, *report["views"].values()]:
                assert all(type(value) is int for value in counts.values()), counts
        finally:
            telemetry.disable()


class TestCHBenchEngine:
    """The same equivalence on the real CH-bench build (TPC-C driver)."""

    def test_views_match_rescan_through_tpcc_mix(self, fresh_engine):
        engine = fresh_engine
        engine.enable_ivm()
        driver = engine.make_driver(seed=3)
        for _ in range(4):
            for _ in range(45):
                txn = driver.next_transaction()
                result = engine.execute_transaction(txn)
                if result.aborted:
                    driver.note_abort(txn)
            ts = engine.db.oracle.read_timestamp()
            for name in QUERIES:
                rescan = run_query(name, engine.olap, engine.db, ts)
                assert engine.ivm.answer(name, ts).rows == rescan.rows

    def test_query_batch_ivm_matches_rescan_batch(self, fresh_engine):
        engine = fresh_engine
        engine.enable_ivm()
        engine.run_transactions(30, engine.make_driver(seed=5))
        rescan = engine.query_batch(list(QUERIES))
        incremental = engine.query_batch(list(QUERIES), use_ivm=True)
        assert incremental.switch_time == 0.0
        for a, b in zip(incremental.results, rescan.results):
            assert a.rows == b.rows

    def test_refresh_cost_is_charged(self, fresh_engine):
        engine = fresh_engine
        engine.enable_ivm()
        engine.run_transactions(20, engine.make_driver(seed=5))
        result = engine.ivm.answer("Q1", engine.db.oracle.read_timestamp())
        assert result.timing.cpu_time > 0.0
        # Already refreshed: a second answer at the same ts is free.
        again = engine.ivm.answer("Q1", engine.db.oracle.read_timestamp())
        assert again.timing.total_time == 0.0
        assert again.rows == result.rows

    def test_query_ivm_requires_enablement(self, fresh_engine):
        with pytest.raises(QueryError):
            fresh_engine.query_ivm("Q1")


class TestSchedulerDecision:
    @pytest.fixture()
    def toy(self):
        rng = random.Random(11)
        engine, live = build_toy_engine(rng)
        engine.enable_ivm()
        return engine, live, random.Random(12)

    def test_first_flush_rescans_then_folds(self, toy):
        engine, _, _ = toy
        scheduler = HTAPScheduler(engine, 1, ivm=True)
        names = ["Q1", "Q6"]
        assert scheduler.choose_olap_mode(names) == "rescan"
        scheduler.note_rescan(1e9, 2)
        # Nothing pending: folding is free, so deltas win.
        assert scheduler.choose_olap_mode(names) == "ivm"
        assert scheduler.stats.rescan_flushes == 1
        assert scheduler.stats.ivm_flushes == 1
        assert scheduler.stats.ivm_queries == 2

    def test_expensive_backlog_rescans(self, toy):
        engine, live, rng = toy
        scheduler = HTAPScheduler(engine, 1, ivm=True)
        scheduler.note_rescan(1e-3, 1)  # absurdly cheap rescans
        run_random_ops(engine, rng, live, 20)
        assert engine.ivm.pending_records() > 0
        assert scheduler.choose_olap_mode(["Q1"]) == "rescan"

    def test_uncovered_batch_rescans(self, toy):
        engine, _, _ = toy
        scheduler = HTAPScheduler(engine, 1, ivm=True)
        scheduler.note_rescan(1e9, 1)
        assert scheduler.choose_olap_mode(["Q1", "Q4"]) == "rescan"

    def test_flag_off_always_rescans(self, toy):
        engine, _, _ = toy
        scheduler = HTAPScheduler(engine, 1)
        scheduler.note_rescan(1e9, 1)
        assert scheduler.choose_olap_mode(["Q1"]) == "rescan"
        report = scheduler.report()
        assert report["ivm"]["enabled"] is False
        assert "views" not in report["ivm"]

    def test_report_surfaces_per_view_staleness(self, toy):
        engine, live, rng = toy
        scheduler = HTAPScheduler(engine, 1, ivm=True)
        run_random_ops(engine, rng, live, 5)
        report = scheduler.report()
        assert report["ivm"]["enabled"] is True
        for name in QUERIES:
            assert report["ivm"]["views"][name]["staleness_txns"] == 5
