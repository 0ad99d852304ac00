"""Defragmentation (§5.3): Eq. 1–3 and the functional executor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DeviceGeometry
from repro.core.defrag import (
    DefragExecutor,
    Strategy,
    comm_cpu_time,
    comm_pim_time,
    pim_breakeven_width,
)
from repro.core.snapshot import SnapshotManager
from repro.core.storage import RankAllocator, TableStorage
from repro.errors import DefragError
from repro.format.binpack import compact_aligned_layout
from repro.format.schema import Column, TableSchema
from repro.mvcc.manager import MVCCManager
from repro.pim.memory import Rank

BDW_CPU = 102.4
BDW_PIM = 1024.0


class TestCostEquations:
    def test_eq1_matches_formula(self):
        # (m*n + 2*n*p*d*w) / bdw
        assert comm_cpu_time(16, 1000, 0.5, 8, 4, BDW_CPU) == pytest.approx(
            (16_000 + 2 * 1000 * 0.5 * 8 * 4) / BDW_CPU
        )

    def test_eq2_matches_formula(self):
        expected = (16_000 + 8 * 16_000) / BDW_CPU + (
            8 * 16_000 + 2 * 1000 * 0.5 * 8 * 4
        ) / BDW_PIM
        assert comm_pim_time(16, 1000, 0.5, 8, 4, BDW_CPU, BDW_PIM) == pytest.approx(expected)

    def test_paper_example(self):
        """§5.3: m=16, p≈1, bdw ratio 3:1 -> PIM wins when w > 16."""
        threshold = pim_breakeven_width(16, 1.0, 1.0, 3.0)
        assert threshold == pytest.approx(16.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=10**6),
        st.floats(min_value=0.05, max_value=1.0),
        st.integers(min_value=1, max_value=200),
    )
    def test_eq3_is_the_crossover(self, m, n, p, w):
        """Above the Eq. 3 width the PIM strategy is cheaper, below it the
        CPU strategy is."""
        cpu = comm_cpu_time(m, n, p, 8, w, BDW_CPU)
        pim = comm_pim_time(m, n, p, 8, w, BDW_CPU, BDW_PIM)
        threshold = pim_breakeven_width(m, p, BDW_CPU, BDW_PIM)
        if w > threshold * 1.001:
            assert pim <= cpu
        elif w < threshold * 0.999:
            assert cpu <= pim

    def test_validation(self):
        # No crossover when PIM bandwidth does not exceed CPU bandwidth.
        assert pim_breakeven_width(16, 1.0, 10.0, 5.0) == float("inf")
        with pytest.raises(DefragError):
            pim_breakeven_width(16, 0.0, 1.0, 3.0)
        with pytest.raises(DefragError):
            comm_cpu_time(16, 10, 1.5, 8, 4, BDW_CPU)


SCHEMA = TableSchema.of(
    "t", [Column("wide", 8), Column("k", 4), Column("pad", 30, kind="bytes")]
)


def make_executor(fixed=0.0):
    rank = Rank(DeviceGeometry(), device_bytes=1 << 19)
    layout = compact_aligned_layout(SCHEMA, ["wide", "k"], 8, 0.6)
    storage = TableStorage(rank, RankAllocator(rank), layout, 256, 256, 64)
    mvcc = MVCCManager(200, 256, 64, 8, 4)
    snap = SnapshotManager(storage, mvcc)
    executor = DefragExecutor(storage, mvcc, snap, BDW_CPU, BDW_PIM, fixed_overhead=fixed)
    return storage, mvcc, snap, executor


class TestPlan:
    def test_pure_strategies(self):
        _, _, _, executor = make_executor()
        for strategy in (Strategy.CPU, Strategy.PIM):
            plan = executor.plan(strategy, p=0.9)
            assert set(plan.values()) == {strategy}

    def test_hybrid_splits_by_width(self):
        _, _, _, executor = make_executor()
        plan = executor.plan(Strategy.HYBRID, p=0.9)
        threshold = pim_breakeven_width(16, 0.9, BDW_CPU, BDW_PIM)
        for part in executor.storage.layout.parts:
            expected = Strategy.PIM if part.row_width > threshold else Strategy.CPU
            assert plan[part.index] == expected

    def test_unknown_strategy(self):
        _, _, _, executor = make_executor()
        with pytest.raises(DefragError):
            executor.plan("teleport", 0.5)


class TestFunctionalRun:
    def row(self, i):
        return {"wide": i * 7, "k": i, "pad": bytes([i % 200] * 30)}

    def test_run_moves_newest_versions_home(self):
        storage, mvcc, snap, executor = make_executor()
        for i in range(100):
            storage.write_row(i, -1, self.row(i))
        _, delta, _ = mvcc.update(5, ts=1)
        storage.write_row(5, delta, self.row(999 % 200))
        result = executor.run(ts=1)
        assert result.moved_rows == 1
        assert storage.read_row(5, -1) == self.row(999 % 200)
        assert mvcc.chain_length(5) == 1

    def test_run_resets_snapshot(self):
        storage, mvcc, snap, executor = make_executor()
        for i in range(100):
            storage.write_row(i, -1, self.row(i))
        _, delta, _ = mvcc.update(5, ts=1)
        storage.write_row(5, delta, self.row(42))
        snap.update_to(1)
        executor.run(ts=1)
        assert snap.visible_data_rows()[:100].all()
        assert not snap.visible_delta_rows().any()

    def test_empty_run_costs_only_fixed(self):
        _, _, _, executor = make_executor(fixed=100.0)
        result = executor.run(ts=0)
        assert result.moved_rows == 0
        assert result.total_time == 100.0

    def test_include_fixed_flag(self):
        _, _, _, executor = make_executor(fixed=100.0)
        result = executor.run(ts=0, include_fixed=False)
        assert result.breakdown.fixed == 0.0

    def test_estimate_matches_strategy_ordering(self):
        """Hybrid never loses to either pure strategy."""
        _, _, _, executor = make_executor()
        n, p = 10_000, 0.9
        cpu = executor.estimate(n, p, Strategy.CPU).total
        pim = executor.estimate(n, p, Strategy.PIM).total
        hybrid = executor.estimate(n, p, Strategy.HYBRID).total
        assert hybrid <= cpu + 1e-6
        assert hybrid <= pim + 1e-6

    def test_breakdown_fields(self):
        _, _, _, executor = make_executor(fixed=10.0)
        breakdown = executor.estimate(1000, 0.9, Strategy.HYBRID)
        assert breakdown.total == pytest.approx(
            breakdown.fixed
            + breakdown.chain_traversal
            + breakdown.metadata_read
            + breakdown.broadcast
            + breakdown.copy_cpu
            + breakdown.copy_pim
        )
