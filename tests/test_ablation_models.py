"""Ablation experiment modules (fast, analytic parts).

The engine-building ablations (circulant, th-latency) are anchored in
``tests/test_figures.py``; here the analytic ones are verified plus the
underlying toggles.
"""

import pytest

from repro.core.engine import PushTapEngine
from repro.experiments import ablations
from repro.format.circulant import BlockCirculantPlacement


class TestLeftoverPolicyAblation:
    def test_tradeoff_direction(self):
        points = {p.policy: p for p in ablations.leftover_policy_ablation()}
        assert points["absorb"].padding_fraction < points["pad"].padding_fraction
        assert points["absorb"].pim_bandwidth <= points["pad"].pim_bandwidth
        assert points["pad"].relaxed_keys == 0
        assert points["absorb"].relaxed_keys > 0


class TestFallbackAblation:
    def test_cpu_fallback_much_slower(self):
        pim, cpu = ablations.key_column_fallback_ablation()
        assert cpu.scan_time > 5 * pim.scan_time


class TestCirculantToggle:
    def test_disabled_placement_is_identity(self):
        p = BlockCirculantPlacement(8, block_rows=64, enabled=False)
        for row in (0, 64, 640):
            for slot in range(8):
                assert p.device_for(row, slot) == slot
        assert p.scan_parallelism(10_000) == pytest.approx(1 / 8)

    def test_engine_without_rotation_still_correct(self):
        engine = PushTapEngine.build(
            scale=1e-5, defrag_period=0, block_rows=256, circulant=False,
            tables=["item", "orderline", "warehouse", "district", "customer",
                    "history", "neworder", "order", "stock"],
        )
        engine.run_transactions(15)
        result = engine.query("Q6")
        # Reference over visible rows.
        from repro.olap.queries import (
            _Q6_DELIVERY_HI, _Q6_DELIVERY_LO, _Q6_QTY_HI, _Q6_QTY_LO,
        )
        table = engine.table("orderline")
        ts = engine.db.oracle.read_timestamp()
        reference = 0
        for rid in range(table.num_rows):
            row = table.read_row(rid, ts)
            if (
                _Q6_DELIVERY_LO <= row["ol_delivery_d"] < _Q6_DELIVERY_HI
                and _Q6_QTY_LO <= row["ol_quantity"] <= _Q6_QTY_HI
            ):
                reference += row["ol_amount"]
        assert result.rows["revenue"] == reference
