"""Analytic scan cost model and its agreement with the functional executor."""

import pytest

from repro.core.config import dimm_system, hbm_system
from repro.errors import QueryError
from repro.olap.cost import column_scan_cost, scan_bandwidth_per_unit
from repro.olap.operators import FilterOperation
from repro.pim.pim_unit import Condition
from repro.units import KIB


class TestScanCost:
    def test_totals_compose(self):
        cost = column_scan_cost(dimm_system(), 1_000_000, 4)
        assert cost.total_time == pytest.approx(
            cost.load_time + cost.compute_time + cost.control_time
        )
        assert cost.phases >= 1
        assert cost.bytes_streamed == 4_000_000

    def test_scales_with_rows(self):
        small = column_scan_cost(dimm_system(), 1_000_000, 4)
        large = column_scan_cost(dimm_system(), 10_000_000, 4)
        assert large.total_time > 5 * small.total_time

    def test_padding_costs_bandwidth(self):
        compact = column_scan_cost(dimm_system(), 10_000_000, 4)
        padded = column_scan_cost(dimm_system(), 10_000_000, 4, part_row_width=8)
        assert padded.load_time == pytest.approx(2 * compact.load_time)

    def test_contiguous_sub_granule_part_streams_densely(self):
        """A 2 B column in a 2 B part packs four rows per 8 B access, so
        it streams 4x less than an 8 B part (holes, by contrast, cannot
        be skipped below the granule — that cost enters via Fig. 11b's
        fragmentation row inflation)."""
        two = column_scan_cost(dimm_system(), 10_000_000, 2, part_row_width=2)
        eight = column_scan_cost(dimm_system(), 10_000_000, 8, part_row_width=8)
        assert two.load_time == pytest.approx(eight.load_time / 4)

    def test_more_wram_fewer_phases(self):
        cfg = dimm_system()
        small = column_scan_cost(cfg, 60_000_000, 8, wram_bytes=16 * KIB)
        large = column_scan_cost(cfg, 60_000_000, 8, wram_bytes=256 * KIB)
        assert large.phases < small.phases
        assert large.control_time < small.control_time

    def test_original_controller_costs_more(self):
        cfg = dimm_system()
        pushtap = column_scan_cost(cfg, 60_000_000, 8, controller_kind="pushtap")
        original = column_scan_cost(cfg, 60_000_000, 8, controller_kind="original")
        assert original.total_time > pushtap.total_time
        assert original.cpu_blocked_time > pushtap.cpu_blocked_time
        assert original.cpu_blocked_time == pytest.approx(original.total_time)

    def test_unit_bandwidth_is_the_cap(self):
        assert scan_bandwidth_per_unit(dimm_system()) == pytest.approx(1.0)

    def test_doubling_channels_halves_scan_cost(self):
        """Twice the channels means twice the PIM units, so a long scan's
        estimated cost halves — within tolerance, since per-phase control
        costs (launch/poll, handover) do not shrink with parallelism."""
        rows = 50_000_000
        base = column_scan_cost(dimm_system(), rows, 4)
        doubled = column_scan_cost(dimm_system(channels=8), rows, 4)
        assert doubled.total_time == pytest.approx(base.total_time / 2, rel=0.1)
        # The bandwidth-bound term halves exactly.
        assert doubled.load_time == pytest.approx(base.load_time / 2)
        assert doubled.bytes_streamed == base.bytes_streamed

    def test_validation(self):
        with pytest.raises(QueryError):
            column_scan_cost(dimm_system(), 0, 4)
        with pytest.raises(QueryError):
            column_scan_cost(dimm_system(), 10, 4, part_row_width=2)
        with pytest.raises(QueryError):
            column_scan_cost(dimm_system(), 10, 4, controller_kind="alien")
        with pytest.raises(QueryError):
            column_scan_cost(dimm_system(), 10, 4, parallel_units=0)


class TestAgreementWithFunctionalExecutor:
    """The analytic model and the functional simulator must agree on the
    dominant (load) term when evaluated at the same scale."""

    def test_load_time_agreement(self, worked_engine):
        engine = worked_engine
        table = engine.table("orderline")
        ts = engine.db.oracle.read_timestamp()
        table.snapshots.update_to(ts)
        rows = table.region_rows()
        op = FilterOperation(
            table.storage, engine.units, "ol_amount", Condition("ge", 0), rows
        )
        functional = engine.olap.executor.execute(op)
        part = table.layout.parts[table.layout.key_column_location("ol_amount").part_index]
        # Evaluate the analytic model for the same single-rank setup.
        analytic = column_scan_cost(
            engine.config,
            rows.data_rows + rows.delta_rows,
            8,
            part_row_width=part.row_width,
            parallel_units=len(
                {(s.device, s.bank) for s in table.storage.column_scan_plan(
                    "ol_amount", "data", rows.data_rows
                )}
            ),
        )
        # The functional path adds bitmap staging and per-block rounding;
        # agreement within 3x establishes the models share first-order terms.
        ratio = functional.load_time / analytic.load_time
        assert 1 / 3 < ratio < 3


class TestHBMScan:
    def test_hbm_scan_cost_computes(self):
        cost = column_scan_cost(hbm_system(), 10_000_000, 8)
        assert cost.total_time > 0
