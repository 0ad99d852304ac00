"""Scan plans outlive the query and grow with the table.

An operator's block placement and phase charges follow from block geometry
alone, so :mod:`repro.olap.operators` keeps one plan per ``(storage,
operator class, column, per-block WRAM bytes)`` in the rank's
``RankUnits.scan_plans`` and, when a query brings new extents, grows it:
only the blocks that changed are placed again. Two oracles: the same
operator planned on an empty memo, which must agree on everything a query
sees, and a plan grown from empty in one step, which a plan grown step by
step must equal field by field. The other tests check that planning has
left a warm query, that growth walks only what changed, and that the memo
stays bounded and free of failed builds.
"""

import copy
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
from repro.experiments.baselines import SEVEN_QUERIES
from repro.mvcc.metadata import Region
from repro.olap import operators as ops
from repro.olap.operators import RegionRows
from repro.pim.pim_unit import Condition
from tests.test_vectorized_equivalence import (
    WORLDS,
    harvest,
    scan_world,
    world_rows,
)


class NoMemo(dict):
    """A memo that keeps nothing: every operator is planned anew."""

    def __setitem__(self, key, value):
        pass


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


def count_plans(monkeypatch, walked=None):
    """Every ``column_scan_plan`` call from here on, by its arguments; with
    ``walked``, also every block the calls yield."""
    calls = []
    plan = TableStorage.column_scan_plan

    def counted(self, *args):
        calls.append(args)
        return walk(plan(self, *args))

    def walk(scans):
        for scan in scans:
            if walked is not None:
                walked.append(scan)
            yield scan

    monkeypatch.setattr(TableStorage, "column_scan_plan", counted)
    return calls


def fresh(plan):
    """The plan for ``plan``'s extents, grown from empty in one step."""
    return ops._ScanPlan(*plan.source).grown(plan.rows)


def same_array(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


def assert_same_plan(got, want):
    """Field by field: floats by ``==``, arrays by value, shape and dtype,
    and the queues and cells growth starts from."""
    assert got.rows == want.rows and got.source == want.source
    assert (got.width, got.offsets, got.stride, got.piece) == (
        want.width, want.offsets, want.stride, want.piece
    )
    assert got.load_request == want.load_request
    assert got.units == want.units
    same_array(got.unit_rows, want.unit_rows)
    assert len(got.charges) == len(want.charges)
    for a, b in zip(got.charges, want.charges):
        assert a.load_times == b.load_times and a.compute_times == b.compute_times
        for name in ("load_terms", "compute_terms", "read_bytes", "elements"):
            same_array(getattr(a, name), getattr(b, name))
        assert a.scanned == b.scanned
    assert len(got.batches) == len(want.batches)
    for phase, expected in zip(got.batches, want.batches):
        assert [b.num_rows for b in phase] == [b.num_rows for b in expected]
        for a, b in zip(phase, expected):
            for name in ("unit_rows", "base", "device", "addr", "bitmap_addr", "delta", "base_row"):
                same_array(getattr(a, name), getattr(b, name))
            assert a.starts.keys() == b.starts.keys()
            for region in a.starts:
                same_array(a.starts[region], b.starts[region])
            for name in ("column", "bitmap"):
                got_view, want_view = getattr(a, name), getattr(b, name)
                assert (got_view.shape, got_view.strides, got_view.dtype) == (
                    want_view.shape, want_view.strides, want_view.dtype
                )
    assert got._queues == want._queues and got._keys == want._keys
    assert got._cells == want._cells


def frozen(plan):
    """A deep copy of ``plan`` that shares only its storage and units, and
    its staging views over their memory: what :func:`assert_same_plan`
    holds a plan to, to prove it unchanged."""
    snapshot = copy.copy(plan)
    shared = {"source": plan.source, "units": list(plan.units)}
    views = {
        id(view): view
        for phase in plan.batches for batch in phase
        for view in (batch.column, batch.bitmap, *batch.wram.values())
    }
    snapshot.__dict__ = {
        **copy.deepcopy({k: v for k, v in vars(plan).items() if k not in shared}, views),
        **shared,
    }
    return snapshot


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
        engine.units.scan_plans = NoMemo()
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
    totals = (engine.units.counts.tolist(), engine.units.times.tolist())
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
                    engine.units.scan_plans = NoMemo()
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


def hidden(rows):
    """Group indices that leave every row of a scan over ``rows`` out."""
    return np.full(rows.data_rows + rows.delta_rows, 0xFFFF, dtype=np.uint16)


#: Operator shapes the growth oracle plans, over (storage, units, rows).
SHAPES = (
    lambda *a: ops.HashOperation(*a[:2], "c", a[2]),
    lambda *a: ops.FilterOperation(*a[:2], "a", Condition("ge", 7), a[2]),
    lambda *a: ops.GroupOperation(*a[:2], "f", a[2]),
    lambda *a: ops.AggregationOperation(*a[:2], "e", a[2], hidden(a[2]), 5),
)


def step_kinds(block, old, new):
    """The growth cases one step of extents covers."""
    blocks = [(-(-a // block), -(-b // block))
              for a, b in zip(dataclasses.astuple(old), dataclasses.astuple(new))]
    if any(b < a for a, b in blocks):
        return {"shrink"}
    kinds = set()
    for region, (a, b), (was, now) in zip(("data", "delta"), blocks,
                                          zip(dataclasses.astuple(old), dataclasses.astuple(new))):
        if was == 0 < now:
            kinds.add("from zero")
        elif b > a:
            kinds.add(f"appended {region} block")
        elif now != was:
            kinds.add("tail fills its block" if now % block == 0 else "tail grows in its block")
    tails = [(rows.data_rows % block, rows.delta_rows % block) for rows in (old, new)]
    if tails[1][0] and tails[1][0] == tails[1][1] and tails[0][0] != tails[0][1]:
        kinds.add("both tails reach one row count")
    return kinds


def extent_steps(rng, block, data_max, delta_max, steps):
    """Random extents for the growth oracle: each step grows a tail, fills
    it, appends blocks, equalizes the two tails, empties a region or grows
    one from zero."""
    data, delta = rng.randint(1, data_max // 2), rng.randint(0, delta_max // 2)
    yield RegionRows(data, delta)
    for _ in range(steps):
        move = rng.choice(("tail", "tail", "fill", "append", "append", "same", "empty", "shrink"))
        room = -data % block
        if move == "tail" and room > 1:
            data += rng.randint(1, room - 1)
        elif move == "fill" and room:
            data += room
        elif move == "append":
            if rng.random() < 0.5:
                data = min(data_max, data + rng.randint(1, 2 * block))
            else:
                delta = min(delta_max, delta + rng.randint(1, 2 * block))
        elif move == "same" and data % block:
            delta = min(delta_max, -(-delta // block) * block + data % block)
        elif move == "empty":
            delta = 0 if delta else rng.randint(1, 2 * block)
        elif move == "shrink":
            data = rng.randint(1, max(1, data - block))
        else:
            delta = min(delta_max, delta + rng.randint(0, block))
        yield RegionRows(data, delta)


class TestGrowthIsAFreshBuild:
    @pytest.mark.parametrize("block", sorted(WORLDS))
    def test_random_extents_on_a_scan_world(self, block):
        """After every step, each shape's memo plan equals the plan grown
        from empty in one step, field by field, and the plan it grew from
        is unchanged."""
        world = scan_world(block, *WORLDS[block])
        storage = world.table("t").storage
        data_max = -(-storage.capacity_rows // block) * block
        delta_max = -(-storage.delta_capacity_rows // block) * block
        rng = random.Random(block)
        seen, previous = set(), None
        for rows in extent_steps(rng, block, data_max, delta_max, 60):
            if previous is not None:
                seen |= step_kinds(block, previous, rows)
            olds = {key: (plan, frozen(plan)) for key, plan in world.units.scan_plans.items()}
            for shape in SHAPES:
                plan = shape(storage, world.units, rows)._plan
                assert plan.rows == rows
                assert_same_plan(plan, fresh(plan))
            for old, snapshot in olds.values():
                assert_same_plan(old, snapshot)
            previous = rows
        assert seen >= {
            "tail grows in its block", "tail fills its block", "appended data block",
            "appended delta block", "from zero", "both tails reach one row count", "shrink",
        }

    @pytest.mark.parametrize("block", [8, 256])
    def test_appended_data_blocks_push_delta_blocks_back(self, block):
        """Data blocks appended one by one to full delta queues: the units
        holding both move their delta blocks back a slot, some into the
        next phase, and each step equals a fresh plan."""
        world = scan_world(block, *WORLDS[block])
        storage = world.table("t").storage
        data_max = -(-storage.capacity_rows // block) * block
        delta_max = -(-storage.delta_capacity_rows // block) * block
        moved = 0
        old = None
        for data in range(data_max - 6 * block + 3, data_max + 1, block):
            op = ops.HashOperation(storage, world.units, "a", RegionRows(data, delta_max))
            plan = op._plan
            assert_same_plan(plan, fresh(plan))
            if old is not None:
                budget = plan.units[0].config.load_buffer_bytes
                slots = budget // op._per_block_wram_bytes()
                phases = {id(entry): p // slots for entries, _ in old._queues.values()
                          for p, entry in enumerate(entries)}
                moved += sum(phases.get(id(entry), p // slots) != p // slots
                             for entries, _ in plan._queues.values()
                             for p, entry in enumerate(entries))
            old = plan
        assert moved > 0

    def test_a_live_engine(self):
        """Transactions, deletes and defragmentation between queries: after
        each query every memo plan equals a fresh one, and most plans that
        changed were grown from the one before."""
        engine = PushTapEngine.build(scale=2e-5, seed=7, defrag_period=0)
        driver = engine.make_driver(seed=5, payment_fraction=0.4, delivery_fraction=0.2)
        grown = 0
        for txns, defrag, names in history(5, 20):
            engine.run_transactions(txns, driver)
            if defrag:
                engine.defragment()
            for name in names:
                before = dict(engine.units.scan_plans)
                engine.query(name)
                for key, plan in engine.units.scan_plans.items():
                    assert_same_plan(plan, fresh(plan))
                    old = before.get(key)
                    grown += old is not None and old is not plan and any(
                        cell is old._cells.get(at) for at, cell in plan._cells.items()
                    )
        assert grown > 10


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
        """New extents replace the shape's entry with a new plan: grown from
        the old one while each region keeps its blocks (one row fewer in a
        tail included), from empty once a region loses a block."""
        world = scan_world(256, *WORLDS[256])
        storage, rows = world.table("t").storage, world_rows(256)
        calls = count_plans(monkeypatch)
        first = ops.HashOperation(storage, world.units, "c", rows)
        assert calls == [("c", Region.DATA, rows.data_rows, 0),
                         ("c", Region.DELTA, rows.delta_rows, 0)]
        again = ops.HashOperation(storage, world.units, "c", rows, hash_function=1)
        assert again._plan is first._plan and len(calls) == 2
        fewer = RegionRows(rows.data_rows - 1, rows.delta_rows)
        snapshot = frozen(first._plan)
        moved = ops.HashOperation(storage, world.units, "c", fewer)
        tail = rows.data_rows // 256
        assert moved._plan is not first._plan
        assert calls[2:] == [("c", Region.DATA, fewer.data_rows, tail)]
        assert list(world.units.scan_plans.values()) == [moved._plan]
        shrunk = RegionRows(fewer.data_rows, fewer.delta_rows - 256)
        ops.HashOperation(storage, world.units, "c", shrunk)
        assert calls[3:] == [("c", Region.DATA, shrunk.data_rows, 0),
                             ("c", Region.DELTA, shrunk.delta_rows, 0)]
        assert_same_plan(first._plan, snapshot)
        assert_same_plan(moved._plan, fresh(moved._plan))
        # Another column, class or group count is another shape.
        ops.HashOperation(storage, world.units, "d", fewer)
        ops.FilterOperation(storage, world.units, "c", Condition("eq", 0), fewer)
        for groups in (3, 4):
            ops.AggregationOperation(storage, world.units, "c", fewer, hidden(fewer), groups)
        assert len(world.units.scan_plans) == 5

    def test_tail_growth_places_only_the_tails(self, monkeypatch):
        """Both tails grow inside their blocks: the walk yields those two
        blocks, two queue entries and two cells are new, every other entry
        and cell is the old plan's own object, and the old plan is
        unchanged."""
        world = scan_world(256, *WORLDS[256])
        storage, rows = world.table("t").storage, world_rows(256)
        old = ops.HashOperation(storage, world.units, "c", rows)._plan
        snapshot = frozen(old)
        walked = []
        count_plans(monkeypatch, walked)
        grown_rows = RegionRows(rows.data_rows + 5, rows.delta_rows + 3)
        new = ops.HashOperation(storage, world.units, "c", grown_rows)._plan
        assert [(scan.block, scan.num_rows) for scan in walked] == [
            (rows.data_rows // 256, grown_rows.data_rows % 256),
            (rows.delta_rows // 256, grown_rows.delta_rows % 256),
        ]
        replaced = [
            (key, position)
            for key, (entries, _) in new._queues.items()
            for position, entry in enumerate(entries)
            if entry is not old._queues[key][0][position]
        ]
        assert len(replaced) == 2 and new._queues.keys() == old._queues.keys()
        assert sum(cell is not old._cells[key] for key, cell in new._cells.items()) == 2
        assert new._cells.keys() == old._cells.keys()
        assert_same_plan(old, snapshot)
        assert_same_plan(new, fresh(new))

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


class TestPlanStaging:
    def test_views_are_windows_on_the_rank_and_its_wram(self):
        """Each batch's staging views index ``Rank.mem`` and
        ``RankUnits.wram`` themselves, not copies: a byte changed in
        either shows through every view at its block's address."""
        world = scan_world(256, *WORLDS[256])
        storage = world.table("t").storage
        op = ops.FilterOperation(storage, world.units, "c", Condition("lt", 7), world_rows(256))
        world.olap.executor.execute(op)
        mem, wram = storage.rank.mem, world.units.wram
        for phase in op._plan.batches:
            for batch in phase:
                assert {batch.num_rows * op.width, 256 // 8} <= batch.wram.keys()
                device, unit = batch.device[0], batch.unit_rows[0]
                windows = [
                    (mem, batch.column, device, batch.addr[0]),
                    (mem, batch.bitmap, device, batch.bitmap_addr[0]),
                ] + [(wram, runs, unit, batch.starts["data"][0]) for runs in batch.wram.values()]
                for matrix, view, row, at in windows:
                    assert np.shares_memory(view[row, at], matrix)
                    byte = matrix[row, at]
                    matrix[row, at] = ~byte
                    assert view[row, at].tobytes()[0] == matrix[row, at]
                    matrix[row, at] = byte


def spoil_last_bank(storage, bank_size):
    """``column_scan_plan`` with the last block it walks moved to the end
    of its bank, so that block's range check fails."""
    plan = storage.column_scan_plan

    def bad_bank(*args):
        scans = list(plan(*args))
        last = scans[-1]
        scans[-1] = dataclasses.replace(last, dram_addr=(last.bank + 1) * bank_size - 100)
        return scans

    return bad_bank


class TestFailedBuildsAreNotStored:
    def failure_cases(self, world, monkeypatch):
        storage, rows = world.table("t").storage, world_rows(256)
        first = next(storage.column_scan_plan("c", Region.DATA, 1))
        bank_size = world.rank.devices[0].bank_size
        past = -(-storage.delta_capacity_rows // 256) * 256 + 1

        def missing_unit():
            monkeypatch.delitem(world.units, (first.device, first.bank))

        return [
            (None, lambda: ops.HashOperation(storage, world.units, "c", RegionRows(0, 0)),
             QueryError, "table 't': nothing to scan"),
            (missing_unit, lambda: ops.HashOperation(storage, world.units, "c", rows),
             QueryError, "table 't': no PIM unit"),
            (None, lambda: ops.AggregationOperation(
                storage, world.units, "c", rows, hidden(rows), 10**6),
             QueryError, "table 't': one block needs"),
            (lambda: monkeypatch.setattr(
                storage, "column_scan_plan", spoil_last_bank(storage, bank_size)),
             lambda: ops.HashOperation(storage, world.units, "c", rows),
             MemoryError_, "table 't': bank .* out of range"),
            (None, lambda: ops.HashOperation(
                storage, world.units, "c", RegionRows(rows.data_rows, past)),
             MemoryError_, f"table 't': delta scan of {past} rows past its"),
        ]

    @pytest.mark.parametrize("case", range(5))
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

    @pytest.mark.parametrize("grow", ["tail", "append"])
    def test_a_failed_growth_changes_nothing(self, grow, monkeypatch):
        """The grown tail's (or appended block's) bank range fails: growth
        raises every time, and the memo entry and a live operator's plan
        stay the old plan, unchanged; unspoiled, the growth succeeds."""
        world = scan_world(256, *WORLDS[256])
        storage, rows = world.table("t").storage, world_rows(256)
        live = ops.HashOperation(storage, world.units, "c", rows)
        plan, snapshot = live._plan, frozen(live._plan)
        more = RegionRows(rows.data_rows + (5 if grow == "tail" else 300), rows.delta_rows)
        with monkeypatch.context() as patch:
            bank_size = world.rank.devices[0].bank_size
            patch.setattr(storage, "column_scan_plan", spoil_last_bank(storage, bank_size))
            for _ in range(2):
                with pytest.raises(MemoryError_, match="table 't': bank .* out of range"):
                    ops.HashOperation(storage, world.units, "c", more)
                assert list(world.units.scan_plans.values()) == [plan]
                assert live._plan is plan
                assert_same_plan(plan, snapshot)
        grown = ops.HashOperation(storage, world.units, "c", more)._plan
        assert list(world.units.scan_plans.values()) == [grown]
        assert_same_plan(grown, fresh(grown))
        assert_same_plan(plan, snapshot)
        result = world.olap.executor.execute(live)
        assert result.phases == len(plan.charges)
