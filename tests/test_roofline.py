"""Roofline observability: accounting, gating, microbenchmarks, sweep."""

import numpy as np
import pytest

from repro import telemetry
from repro.bench.micro import (
    DEFAULT_SIZES,
    PRIMITIVES,
    _build_engine,
    _unit_engine,
    fit_saturation,
    run_micro,
    run_primitive,
)
from repro.bench.roofline import render_roofline, run_roofline
from repro.core.config import SUBSTRATES, substrate_config
from repro.errors import ConfigError
from repro.olap.engine import OperatorMetrics, QueryTiming
from repro.olap.operators import AggregationOperation, FilterOperation, RegionRows
from repro.pim.pim_unit import Condition
from repro.telemetry.registry import MetricsRegistry

ROWS = 1024

#: The planned scan charges its snapshot-bitmap stream without the unit
#: port's cap, which the column stream gets; on these substrates that
#: reads faster than the port.
_UNCAPPED_BITMAP = pytest.mark.xfail(
    strict=True,
    reason="_ScanPlan._block_costs streams the bitmap with the uncapped "
    "operators._stream_time (DESIGN.md §5)",
)


@pytest.fixture
def roofline_registry():
    registry = MetricsRegistry()
    registry.roofline = True
    telemetry.enable(registry)
    yield registry
    telemetry.disable()


@pytest.fixture
def plain_registry():
    registry = MetricsRegistry()
    telemetry.enable(registry)
    yield registry
    telemetry.disable()


def _engine(substrate_name="ddr5", rows=ROWS):
    return _build_engine(substrate_config(substrate_name), rows, block_rows=256)


def _run_filter(engine, rows=ROWS):
    table = engine.table("points")
    timing = QueryTiming()
    engine.olap.filter(
        table, "v", Condition("lt", 32768), timing, RegionRows(data_rows=rows)
    )
    return timing


class TestMicro:
    @pytest.mark.parametrize("substrate", ["ddr5", "hbm3", "lpddr5x-pim"])
    def test_scan_and_filter_memory_bound_at_large_sizes(self, substrate):
        """Acceptance: streaming primitives hit >=50% of the ceiling."""
        for primitive in ("scan", "filter"):
            point = run_primitive(substrate, primitive, 16384)
            assert point.bound == "memory"
            assert point.ceiling_ratio >= 0.5

    def test_all_primitives_move_bytes(self):
        for primitive in PRIMITIVES:
            point = run_primitive("ddr5", primitive, 64)
            assert point.dram_bytes > 0
            assert point.load_time > 0
            assert point.effective_bandwidth > 0

    def test_sweep_covers_all_cells(self):
        points = run_micro(["ddr5"], sizes=(8, 64), primitives=["scan", "copy"])
        cells = {(p.primitive, p.rows) for p in points}
        assert cells == {("scan", 8), ("scan", 64), ("copy", 8), ("copy", 64)}

    @pytest.mark.parametrize(
        "substrate",
        [
            pytest.param("ddr5", marks=_UNCAPPED_BITMAP),
            pytest.param("hbm3", marks=_UNCAPPED_BITMAP),
            "lpddr5x-pim",
        ],
    )
    def test_bandwidth_never_exceeds_unit_port(self, substrate):
        port = substrate_config(substrate).pim.dram_bandwidth
        for rows in DEFAULT_SIZES:
            point = run_primitive(substrate, "scan", rows)
            assert point.effective_bandwidth <= port + 1e-9

    def test_saturation_knee_small_transfers_slower(self):
        small = run_primitive("lpddr5x-pim", "filter", 8)
        large = run_primitive("lpddr5x-pim", "filter", 16384)
        assert small.effective_bandwidth < large.effective_bandwidth

    def test_unknown_primitive_rejected(self):
        with pytest.raises(ConfigError, match="unknown primitive"):
            run_primitive("ddr5", "sort", 64)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            run_primitive("ddr5", "scan", 0)

    @pytest.mark.parametrize("substrate", ["ddr5", "hbm3", "lpddr5x-pim"])
    @pytest.mark.parametrize("rows", [8, 1024, 16384])
    @pytest.mark.parametrize("primitive", ["scan", "filter", "aggregate"])
    def test_point_is_the_planned_charges(self, primitive, rows, substrate):
        """A scan primitive charges its unit exactly what the query path's
        scan plan charges the same operator on the same one-unit table."""
        point = run_primitive(substrate, primitive, rows)
        engine = _unit_engine(substrate_config(substrate), rows)
        table = engine.table("points")
        selection = RegionRows(data_rows=rows)
        if primitive == "aggregate":
            indices = np.zeros(rows, dtype=np.uint16)
            op = AggregationOperation(table.storage, engine.units, "v", selection, indices, 1)
        else:
            condition = Condition("lt", 32768)
            op = FilterOperation(table.storage, engine.units, "v", condition, selection)
        charges = op._plan.charges
        load = sum(sum(c.load_times) for c in charges)
        compute = 0.0 if primitive == "scan" else sum(sum(c.compute_times) for c in charges)
        assert point.dram_bytes == sum(int(c.read_bytes.sum()) for c in charges)
        # The unit's counter adds term by term, the phase sums per phase:
        # the same terms, rounded in a different order.
        assert point.load_time == pytest.approx(load, rel=1e-12)
        assert point.compute_time == pytest.approx(compute, rel=1e-12)

    @pytest.mark.parametrize("rows", [8, 1500])
    def test_join_counts_both_hash_scans_and_the_match(self, rows):
        point = run_primitive("ddr5", "join", rows)
        assert point.elements == 4 * rows

    def test_copy_reads_and_writes_each_slot_at_the_granule(self):
        point = run_primitive("ddr5", "copy", 1500)
        assert point.dram_bytes == 2 * 1500 * 8
        assert point.elements == 1500

    def test_point_dict_round_trips_derived_values(self):
        point = run_primitive("ddr5", "scan", 64)
        d = point.as_dict()
        assert d["effective_bandwidth"] == pytest.approx(point.effective_bandwidth)
        assert d["ceiling_ratio"] == pytest.approx(point.ceiling_ratio)
        assert d["bound"] == point.bound


class TestFitSaturation:
    def test_recovers_synthetic_curve(self):
        b_inf, s_half = 2.0, 512.0
        sizes = [64.0, 256.0, 1024.0, 8192.0, 65536.0]
        bws = [b_inf * s / (s + s_half) for s in sizes]
        fit = fit_saturation(sizes, bws)
        assert fit["asymptote_bandwidth"] == pytest.approx(b_inf, rel=1e-6)
        assert fit["half_size_bytes"] == pytest.approx(s_half, rel=1e-6)

    def test_flat_curve_fits_constant(self):
        fit = fit_saturation([64.0, 1024.0, 65536.0], [1.0, 1.0, 1.0])
        assert fit["asymptote_bandwidth"] == pytest.approx(1.0)
        assert fit["half_size_bytes"] == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_input_safe(self):
        assert fit_saturation([], [])["asymptote_bandwidth"] == 0.0
        assert fit_saturation([64.0], [1.0])["asymptote_bandwidth"] == 0.0


class TestOperatorAccounting:
    def test_execution_result_counts_bytes_and_elements(self, roofline_registry):
        engine = _engine()
        _run_filter(engine)
        assert len(engine.olap.roofline_log) == 1
        metrics = engine.olap.roofline_log[0]
        assert metrics.operator == "filter"
        # Every row's 4-byte value is streamed at least once; the
        # snapshot bitmap rides along, so bytes >= the column footprint.
        assert metrics.dram_bytes >= ROWS * 4
        assert metrics.elements == ROWS
        assert metrics.load_time > 0
        assert 0 < metrics.effective_bandwidth <= metrics.ceiling_bandwidth * 1.25
        assert metrics.bound in ("memory", "compute", "control")

    def test_span_carries_roofline_attrs(self, roofline_registry):
        engine = _engine()
        _run_filter(engine)
        spans = [s for s in roofline_registry.spans if s.name == "olap.operator.filter"]
        assert spans
        attrs = dict(spans[-1].attrs)
        assert attrs["dram_bytes"] > 0
        assert attrs["eff_gbps"] > 0
        assert attrs["bound"] in ("memory", "compute", "control")

    def test_gated_counters_present_when_on(self, roofline_registry):
        engine = _engine()
        _run_filter(engine)
        names = set(roofline_registry.counters)
        assert "olap.operator.filter.dram_bytes" in names
        assert "olap.operator.filter.elements" in names
        assert any(n.startswith("olap.operator.filter.bound.") for n in names)

    def test_everything_gated_off_by_default(self, plain_registry):
        """With roofline off, telemetry keys must match the pre-refactor
        set — the BENCH baseline bit-identity contract."""
        engine = _engine()
        _run_filter(engine)
        assert engine.olap.roofline_log == []
        assert not any(".dram_bytes" in n for n in plain_registry.counters)
        spans = [s for s in plain_registry.spans if s.name == "olap.operator.filter"]
        assert spans and "dram_bytes" not in dict(spans[-1].attrs)

    def test_metrics_from_scan_classifies(self):
        from repro.pim.executor import ExecutionResult

        scan = ExecutionResult(
            total_time=10.0, load_time=6.0, compute_time=3.0, control_time=1.0,
            dram_bytes=600, elements=150,
        )
        metrics = OperatorMetrics.from_scan("filter", "v", scan, 4, 1.0)
        assert metrics.bound == "memory"
        assert metrics.effective_bandwidth == pytest.approx(100.0)
        assert metrics.operational_intensity == pytest.approx(0.25)
        assert metrics.ceiling_bandwidth == pytest.approx(4.0)


class TestRooflineSweep:
    @pytest.fixture(scope="class")
    def snapshot(self):
        return run_roofline(
            ["ddr5", "lpddr5x-pim"], sizes=(512, 1024), micro_sizes=(8, 256)
        )

    def test_snapshot_shape(self, snapshot):
        assert snapshot["bench_roofline_version"] == 2
        for key in ("substrates", "micro", "fits", "operators", "bottlenecks",
                    "trace_check"):
            assert set(snapshot[key]) == {"ddr5", "lpddr5x-pim"}

    def test_operator_sweep_covers_suite(self, snapshot):
        operators = {o["operator"] for o in snapshot["operators"]["ddr5"]}
        assert {"filter", "group", "aggregate", "hash", "join"} <= operators

    def test_trace_consistency_within_one_percent(self, snapshot):
        """Acceptance: operator bandwidth re-derived from the span tree
        agrees with the accounting within +-1%."""
        for name, check in snapshot["trace_check"].items():
            assert check["checked"] > 0, name
            assert check["ok"], (name, check)
            assert check["max_rel_err"] <= 0.01

    def test_bottlenecks_ranked_by_time_share(self, snapshot):
        for ranked in snapshot["bottlenecks"].values():
            shares = [e["time_share"] for e in ranked]
            assert shares == sorted(shares, reverse=True)
            assert sum(shares) == pytest.approx(1.0)

    def test_render_mentions_every_substrate(self, snapshot):
        text = render_roofline(snapshot)
        assert "== ddr5" in text and "== lpddr5x-pim" in text
        assert "trace consistency" in text

    def test_telemetry_left_disabled(self, snapshot):
        assert not telemetry.active().enabled

    def test_defaults_cover_all_substrates(self):
        from repro.bench.roofline import DEFAULT_OPERATOR_SIZES

        assert len(DEFAULT_OPERATOR_SIZES) >= 2
        # run_roofline(None) sweeps every registered substrate.
        assert set(SUBSTRATES) >= {"ddr5", "hbm3", "lpddr5x-pim"}
