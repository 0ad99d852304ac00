"""Scan results as arrays, held against the per-block walk they replaced.

Every operator harvests one array over its scan's rows, data rows then
delta rows, and the CPU-side glue runs once per scan. The per-block
oracle (:class:`tests.test_vectorized_equivalence.OraclePhase`) keeps the
old per-block dicts; ``test_phase_by_phase`` there checks each operator's
scan arrays against that walk concatenated in region order, at block
sizes 8, 256 and 1024 with partial last blocks in both regions and
phases that mix data and delta blocks. This file checks what the CPU
makes of those arrays — merged group ids and the traffic charged for
merging and combining — and that a phase's one-accumulate charge of the
units' time counters is the term-by-term loop, bit for bit.
"""

import numpy as np
import pytest

from repro.core.engine import PushTapEngine
from repro.olap import operators as ops
from repro.olap import plan as qplan
from repro.pim.pim_unit import Condition
from repro.units import ceil_div
from tests.test_vectorized_equivalence import (
    WORLDS,
    OraclePhase,
    scan_world,
    world_rows,
)


def run(world, op):
    world.olap.executor.execute(op)
    return op


@pytest.mark.parametrize("block_rows", sorted(WORLDS))
class TestCPUGlue:
    def test_ids_are_the_sorted_keys_of_the_visible_rows(self, block_rows):
        """A row's merged id is ``searchsorted(all_keys, value)``, with the
        keys and visibility read off a hash scan of the same column."""
        world = scan_world(block_rows, *WORLDS[block_rows])
        storage, rows = world.table("t").storage, world_rows(block_rows)
        group = run(world, ops.GroupOperation(storage, world.units, "a", rows))
        keys = run(world, ops.HashOperation(storage, world.units, "a", rows))
        merged = qplan.merge_group_blocks(group)
        visible = keys.hashes != 0
        all_keys = np.unique(keys.values[visible])
        assert visible.any() and not visible.all()
        np.testing.assert_array_equal(merged.keys, all_keys)
        assert merged.indices.dtype == np.uint16
        np.testing.assert_array_equal(
            merged.indices[visible], np.searchsorted(all_keys, keys.values[visible])
        )
        assert (merged.indices[~visible] == qplan.INVALID_GROUP).all()

    def test_merge_charges_each_blocks_indices_and_dictionary(self, block_rows):
        world = scan_world(block_rows, *WORLDS[block_rows])
        oracle_world = scan_world(block_rows, *WORLDS[block_rows])
        rows = world_rows(block_rows)
        group = run(world, ops.GroupOperation(world.table("t").storage, world.units, "a", rows))
        oracle = run(oracle_world, OraclePhase(
            "group", oracle_world.table("t").storage, oracle_world.units, "a", rows
        ))
        assert qplan.merge_group_blocks(group).cpu_bytes == sum(
            oracle.block_indices[s].nbytes + oracle.block_dicts[s].nbytes
            for s in oracle.block_dicts
        )

    def test_combine_masks_charges_each_blocks_bitmap(self, block_rows):
        """⌈n/8⌉ bytes per block of n rows, per filter — a partial block's
        bitmap is not rounded to the full block's."""
        world = scan_world(block_rows, *WORLDS[block_rows])
        oracle_world = scan_world(block_rows, *WORLDS[block_rows])
        rows = world_rows(block_rows)
        conditions = (Condition("ge", 3), Condition("lt", 200))
        filters = [
            run(world, ops.FilterOperation(world.table("t").storage, world.units, "a", c, rows))
            for c in conditions
        ]
        oracles = [
            run(oracle_world, OraclePhase(
                "filter", oracle_world.table("t").storage, oracle_world.units, "a", rows,
                condition=c,
            ))
            for c in conditions
        ]
        mask, cpu_bytes = qplan.combine_masks(filters)
        assert cpu_bytes == sum(
            ceil_div(len(m), 8) for oracle in oracles for m in oracle.masks.values()
        )
        np.testing.assert_array_equal(mask, filters[0].mask & filters[1].mask)


class TestPhaseCharges:
    def test_times_equal_a_term_by_term_replay(self, monkeypatch):
        """After Q1, Q6 and Q9 at 256-row blocks, each rank's time counters
        equal every executed phase's load and compute terms added one at a
        time, in execution order, onto the counters the queries started
        from."""
        engine = PushTapEngine.build(scale=2e-5, seed=7, defrag_period=0, block_rows=256)
        engine.run_transactions(120)
        replay = {}
        phases = []

        def recorded(method, column):
            def wrapped(self, chunk):
                units = self.units
                replay.setdefault(id(units), (units, units.times.copy()))
                phases.append((id(units), self._plan, chunk, column))
                return method(self, chunk)
            return wrapped

        cls = ops._ColumnScanOperation
        monkeypatch.setattr(cls, "load", recorded(cls.load, 0))
        monkeypatch.setattr(cls, "compute", recorded(cls.compute, 1))
        for name in ("Q1", "Q6", "Q9"):
            engine.query(name)
        assert len({plan for _, plan, _, _ in phases}) > 3
        longest = 0
        for key, plan, chunk, column in phases:
            charges = plan.charges[chunk]
            terms = charges.compute_terms if column else charges.load_terms
            longest = max(longest, len(terms))
            times = replay[key][1]
            for term in terms:
                times[plan.unit_rows, column] += term
        assert longest > 2
        for units, times in replay.values():
            assert np.array_equal(units.times, times)
            assert units.times.any()
