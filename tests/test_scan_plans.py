"""Scan plans outlive the query: the rank's memo against an empty one.

An operator's block placement and phase charges follow from block geometry
alone, so :mod:`repro.olap.operators` builds them once per ``(storage,
operator class, column, per-block WRAM bytes)`` and region extents and
keeps them in the rank's ``RankUnits.scan_plans``. The oracle is the same
operator planned on an empty memo: every test here requires the two to
agree on everything a query sees, or checks that planning has left a warm
query and that the memo stays bounded and free of failed builds.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.cluster.cluster import PushTapCluster
from repro.cluster.gather import MERGEABLE_QUERIES
from repro.cluster.partition import cluster_row_counts
from repro.cluster.workload import ClusterWorkload
from repro.core.engine import PushTapEngine
from repro.core.storage import TableStorage
from repro.errors import MemoryError_, QueryError
from repro.mvcc.metadata import Region
from repro.olap import operators as ops
from repro.olap.operators import RegionRows
from repro.pim.pim_unit import Condition
from tests.test_vectorized_equivalence import (
    SEVEN_QUERIES,
    WORLDS,
    harvest,
    scan_world,
    world_rows,
)


class NoMemo(dict):
    """A memo that keeps nothing: every operator is planned anew."""

    def __setitem__(self, key, value):
        pass


def rank_units(engine):
    """Every ``RankUnits`` an engine's operators may plan on."""
    units = [engine.units] + [t.units for t in engine.db.tables.values() if t.units is not None]
    return list({id(u): u for u in units}.values())


def record_scans(engine, log, plans=None):
    """Log each column scan the engine runs: its shape, its harvest, its
    ``ExecutionResult`` and the counter deltas it charged the rank."""
    execute = engine.olap.executor.execute

    def recorded(op):
        if not isinstance(op, ops._ColumnScanOperation):
            return execute(op)
        counts, times = op.units.counts.copy(), op.units.times.copy()
        result = execute(op)
        log.append((
            type(op).__name__, op.column, op.rows, harvest(op), dataclasses.asdict(result),
            (op.units.counts - counts).tolist(), (op.units.times - times).tolist(),
        ))
        if plans is not None:
            plans.append(op._plan)
        return result

    engine.olap.executor.execute = recorded


def count_plans(monkeypatch):
    """Every ``column_scan_plan`` call from here on, by its arguments."""
    calls = []
    plan = TableStorage.column_scan_plan

    def counted(self, *args):
        calls.append(args)
        return plan(self, *args)

    monkeypatch.setattr(TableStorage, "column_scan_plan", counted)
    return calls


def history(seed, rounds):
    """Rounds of (transactions, defragment?, queries); a round without
    transactions or defragmentation repeats its extents."""
    rng = random.Random(seed)
    return [
        (rng.choice((0, 0, rng.randint(1, 25))), rng.random() < 0.2,
         rng.sample(SEVEN_QUERIES, rng.randint(1, 3)))
        for _ in range(rounds)
    ]


def engine_run(seed, memo):
    """An engine through :func:`history`: every scan it ran, every answer
    and, with ``memo``, every plan its operators used."""
    engine = PushTapEngine.build(scale=2e-5, seed=7, defrag_period=0)
    if not memo:
        for units in rank_units(engine):
            units.scan_plans = NoMemo()
    log, plans, answers = [], [], []
    record_scans(engine, log, plans)
    driver = engine.make_driver(seed=seed, payment_fraction=0.4, delivery_fraction=0.2)
    for txns, defrag, names in history(seed, 14):
        engine.run_transactions(txns, driver)
        if defrag:
            engine.defragment()
        for name in names:
            result = engine.query(name)
            answers.append((name, sorted((str(k), repr(v)) for k, v in result.rows.items()),
                            result.timing.total_time))
    totals = [(u.counts.tolist(), u.times.tolist()) for u in rank_units(engine)]
    return log, plans, answers, totals


class TestMemoIsTheOracle:
    @pytest.mark.parametrize("seed", [3, 8])
    def test_random_history(self, seed):
        """Inserts, updates, deletes and defragmentation between queries:
        each scan of each query equals one planned on an empty memo."""
        log, plans, answers, totals = engine_run(seed, memo=True)
        want_log, _, want_answers, want_totals = engine_run(seed, memo=False)
        assert len(log) == len(want_log)
        for got, want in zip(log, want_log):
            assert got == want
        assert answers == want_answers
        assert totals == want_totals
        # Not vacuous: some scans reused a plan and some extents moved.
        assert len({id(plan) for plan in plans}) < len(plans)
        assert len({entry[2] for entry in log}) > 2
        assert {entry[0] for entry in log} == {
            "FilterOperation", "GroupOperation", "AggregationOperation", "HashOperation"
        }

    def test_sharded_cluster(self):
        """A ``cluster_2pc``-shaped cluster (cross-shard 2PC, scatter-gather
        queries): every shard's scans equal their empty-memo oracle."""

        def run(memo):
            cluster = PushTapCluster.build(
                shards=2, counts=cluster_row_counts(2e-5, 2), seed=7, defrag_period=0,
            )
            log = []
            for engine in cluster.engines:
                if not memo:
                    for units in rank_units(engine):
                        units.scan_plans = NoMemo()
                record_scans(engine, log)
            workload = ClusterWorkload(
                cluster, txns_per_query=8, queries=MERGEABLE_QUERIES, seed=11, jobs=1,
            )
            report = workload.run(10)
            repeats = [sorted(map(repr, cluster.query(name).rows.items()))
                       for name in MERGEABLE_QUERIES for _ in range(2)]
            return log, report.as_dict(), repeats

        got, want = run(memo=True), run(memo=False)
        assert len(got[0]) == len(want[0]) > 0
        for a, b in zip(got[0], want[0]):
            assert a == b
        assert got[1:] == want[1:]


@pytest.fixture(scope="module")
def warm_engine():
    engine = PushTapEngine.build(scale=2e-5, seed=7, defrag_period=0)
    engine.run_transactions(60)
    return engine


class TestStructuralGuards:
    @pytest.mark.parametrize("name", SEVEN_QUERIES)
    def test_a_warm_repeat_builds_no_plan(self, name, warm_engine, monkeypatch):
        cold = warm_engine.query(name)
        calls = count_plans(monkeypatch)
        warm = warm_engine.query(name)
        assert calls == []
        assert warm.rows == cold.rows
        assert dataclasses.asdict(warm.timing.scan) == dataclasses.asdict(cold.timing.scan)

    def test_new_extents_replace_the_shapes_entry(self, monkeypatch):
        world = scan_world(256, *WORLDS[256])
        storage, rows = world.table("t").storage, world_rows(256)
        calls = count_plans(monkeypatch)
        first = ops.HashOperation(storage, world.units, "c", rows)
        assert len(calls) == 2  # data + delta region
        again = ops.HashOperation(storage, world.units, "c", rows, hash_function=1)
        assert again._plan is first._plan and len(calls) == 2
        fewer = RegionRows(rows.data_rows - 1, rows.delta_rows)
        moved = ops.HashOperation(storage, world.units, "c", fewer)
        assert moved._plan is not first._plan and len(calls) == 4
        assert list(world.units.scan_plans.values()) == [(fewer, moved._plan)]
        # Another column, class or group count is another shape.
        ops.HashOperation(storage, world.units, "d", fewer)
        ops.FilterOperation(storage, world.units, "c", Condition("eq", 0), fewer)
        for groups in (3, 4):
            ops.AggregationOperation(storage, world.units, "c", fewer, {}, groups)
        assert len(world.units.scan_plans) == 5

    def test_the_memo_holds_one_entry_per_shape(self):
        """50 interleaved transaction/query rounds: the memo holds exactly
        the shapes the queries used, however many extents went by."""
        engine = PushTapEngine.build(scale=2e-5, seed=7, defrag_period=0)
        driver = engine.make_driver(payment_fraction=0.4, delivery_fraction=0.2)
        shapes, extents = set(), set()
        execute = engine.olap.executor.execute

        def shaped(op):
            if isinstance(op, ops._ColumnScanOperation):
                shapes.add((op.storage, op.column, type(op), op._per_block_wram_bytes()))
                extents.add((op.storage, type(op), op.column, op.rows))
            return execute(op)

        engine.olap.executor.execute = shaped
        for i in range(50):
            engine.run_transactions(3, driver)
            engine.query(SEVEN_QUERIES[i % len(SEVEN_QUERIES)])
        assert set(engine.units.scan_plans) == shapes
        assert len(extents) > 2 * len(shapes)


class TestFailedBuildsAreNotStored:
    def failure_cases(self, world, monkeypatch):
        storage, rows = world.table("t").storage, world_rows(256)
        first = next(storage.column_scan_plan("c", Region.DATA, 1))
        bank_size = world.rank.devices[0].bank_size
        plan = storage.column_scan_plan

        def bad_bank(*args):
            scans = list(plan(*args))
            last = scans[-1]
            scans[-1] = dataclasses.replace(last, dram_addr=(last.bank + 1) * bank_size - 100)
            return scans

        def missing_unit():
            monkeypatch.delitem(world.units, (first.device, first.bank))

        return [
            (None, lambda: ops.HashOperation(storage, world.units, "c", RegionRows(0, 0)),
             QueryError, "nothing to scan"),
            (missing_unit, lambda: ops.HashOperation(storage, world.units, "c", rows),
             QueryError, "no PIM unit"),
            (None, lambda: ops.AggregationOperation(storage, world.units, "c", rows, {}, 10**6),
             QueryError, "one block needs"),
            (lambda: monkeypatch.setattr(storage, "column_scan_plan", bad_bank),
             lambda: ops.HashOperation(storage, world.units, "c", rows),
             MemoryError_, "out of range"),
        ]

    @pytest.mark.parametrize("case", range(4))
    def test_raises_every_time_and_stores_nothing(self, case, monkeypatch):
        world = scan_world(256, *WORLDS[256])
        storage, rows = world.table("t").storage, world_rows(256)
        with monkeypatch.context() as patch:
            spoil, build, error, message = self.failure_cases(world, patch)[case]
            if spoil is not None:
                spoil()
            for _ in range(2):
                with pytest.raises(error, match=message):
                    build()
                assert world.units.scan_plans == {}
        # A valid shape still plans, and runs.
        op = ops.HashOperation(storage, world.units, "c", rows)
        assert len(world.units.scan_plans) == 1
        result = world.olap.executor.execute(op)
        assert result.phases == op.num_chunks() > 1
        assert np.sum(op.units.counts) > 0
