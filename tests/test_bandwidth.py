"""Effective-bandwidth and storage models (§4.1, Fig. 8)."""

import pytest

from repro.core.config import dimm_system, hbm_system
from repro.errors import LayoutError
from repro.format.bandwidth import (
    cpu_effective_bandwidth,
    cpu_lines_per_row,
    pim_column_efficiency,
    pim_effective_bandwidth,
    storage_breakdown,
)
from repro.format.binpack import compact_aligned_layout
from repro.format.naive import naive_aligned_layout
from repro.format.schema import Column, TableSchema

GEOM = dimm_system().geometry

SCHEMA = TableSchema.of(
    "t",
    [Column("k8", 8), Column("k4", 4), Column("k2", 2), Column("n", 34, kind="bytes")],
)
KEYS = ["k8", "k4", "k2"]


def cpu_bandwidth(layout, geometry=GEOM):
    """The database CPU formula on one table."""
    return cpu_effective_bandwidth({"t": layout}, geometry, {"t": 1})


def pim_bandwidth(layout, column_weights):
    """The database PIM formula on one table's columns."""
    return pim_effective_bandwidth(
        {"t": layout}, {("t", column): weight for column, weight in column_weights.items()}
    )


class TestCPUModel:
    def test_lines_per_row_counts_parts(self):
        layout = compact_aligned_layout(SCHEMA, KEYS, 8, 0.0)
        # One dense part of width <= 8 -> one interleaved line.
        assert cpu_lines_per_row(layout, GEOM) == layout.num_parts

    def test_effective_bandwidth_definition(self):
        layout = compact_aligned_layout(SCHEMA, KEYS, 8, 0.0)
        lines = cpu_lines_per_row(layout, GEOM)
        expected = SCHEMA.row_bytes / (lines * 64)
        assert cpu_bandwidth(layout) == pytest.approx(expected)

    def test_cpu_bandwidth_degrades_with_th(self):
        low = cpu_bandwidth(compact_aligned_layout(SCHEMA, KEYS, 8, 0.0))
        high = cpu_bandwidth(compact_aligned_layout(SCHEMA, KEYS, 8, 1.0))
        assert high <= low

    def test_hbm_granularity_hurts_small_rows(self):
        """§8: 64 B granularity wastes bandwidth on small columns."""
        layout = compact_aligned_layout(SCHEMA, KEYS, 8, 0.6)
        dimm = cpu_bandwidth(layout)
        hbm = cpu_bandwidth(layout, hbm_system().geometry)
        assert hbm < dimm

    def test_tables_weigh_by_rows(self):
        """Several tables pool useful and moved bytes, each by its rows;
        a table absent from ``rows`` moves nothing."""
        dense = compact_aligned_layout(SCHEMA, KEYS, 8, 0.0)
        split = compact_aligned_layout(SCHEMA, KEYS, 8, 1.0)
        layouts = {"dense": dense, "split": split}
        moved = {name: cpu_lines_per_row(l, GEOM) * 64 for name, l in layouts.items()}
        pooled = cpu_effective_bandwidth(layouts, GEOM, {"dense": 3, "split": 1})
        expected = 4 * SCHEMA.row_bytes / (3 * moved["dense"] + moved["split"])
        assert pooled == pytest.approx(expected)
        assert cpu_effective_bandwidth(layouts, GEOM, {"dense": 5}) == cpu_bandwidth(dense)
        assert cpu_effective_bandwidth(layouts, GEOM, {}) == 0.0


class TestPIMModel:
    def test_efficiency_is_width_over_part_width(self):
        layout = compact_aligned_layout(SCHEMA, KEYS, 8, 0.0)
        part = layout.parts[layout.key_column_location("k2").part_index]
        assert pim_column_efficiency(layout, "k2") == pytest.approx(2 / part.row_width)

    def test_dedicated_parts_are_fully_efficient(self):
        layout = compact_aligned_layout(SCHEMA, KEYS, 8, 1.0)
        for key in KEYS:
            assert pim_column_efficiency(layout, key) == 1.0

    def test_weighted_average(self):
        layout = compact_aligned_layout(SCHEMA, KEYS, 8, 1.0)
        assert pim_bandwidth(layout, {"k8": 3, "k4": 1}) == 1.0

    def test_columns_of_several_tables_average_by_weight(self):
        dense = compact_aligned_layout(SCHEMA, KEYS, 8, 0.0)
        split = compact_aligned_layout(SCHEMA, KEYS, 8, 1.0)
        layouts = {"dense": dense, "split": split}
        weights = {("dense", "k2"): 3, ("split", "k4"): 1}
        expected = (3 * pim_column_efficiency(dense, "k2") + 1.0) / 4
        assert pim_effective_bandwidth(layouts, weights) == pytest.approx(expected)

    def test_zero_weights_give_zero(self):
        layout = compact_aligned_layout(SCHEMA, KEYS, 8, 1.0)
        assert pim_bandwidth(layout, {}) == 0.0
        assert pim_bandwidth(layout, {"k8": 0}) == 0.0

    def test_non_key_weight_rejected(self):
        layout = compact_aligned_layout(SCHEMA, KEYS, 8, 1.0)
        with pytest.raises(LayoutError):
            pim_bandwidth(layout, {"n": 1})

    def test_pim_bandwidth_improves_with_th(self):
        weights = {"k8": 1, "k4": 1, "k2": 1}
        low = pim_bandwidth(compact_aligned_layout(SCHEMA, KEYS, 8, 0.0), weights)
        high = pim_bandwidth(compact_aligned_layout(SCHEMA, KEYS, 8, 1.0), weights)
        assert high >= low


class TestNaiveVsCompact:
    def test_compact_stores_less(self):
        naive = naive_aligned_layout(SCHEMA, 8)
        compact = compact_aligned_layout(SCHEMA, KEYS, 8, 0.6)
        assert compact.bytes_per_row() <= naive.bytes_per_row()

    def test_naive_covers_all_columns(self):
        naive = naive_aligned_layout(SCHEMA, 8)
        assert naive.useful_bytes_per_row() == SCHEMA.row_bytes
        assert set(naive.key_columns) == set(SCHEMA.column_names)


class TestStorageBreakdown:
    def test_components_sum(self):
        layout = compact_aligned_layout(SCHEMA, KEYS, 8, 0.6)
        sb = storage_breakdown(layout, 10_000, delta_fraction=0.1)
        assert sb.total_bytes == sb.data_bytes + sb.padding_bytes + sb.bitmap_bytes

    def test_data_scales_with_rows(self):
        layout = compact_aligned_layout(SCHEMA, KEYS, 8, 0.6)
        small = storage_breakdown(layout, 1_000)
        large = storage_breakdown(layout, 2_000)
        assert large.data_bytes == pytest.approx(2 * small.data_bytes, rel=0.01)

    def test_bitmap_fraction_small(self):
        """Fig. 8b: the snapshot bitmap is a small overhead (2.3 % in the paper)."""
        layout = compact_aligned_layout(SCHEMA, KEYS, 8, 0.6)
        sb = storage_breakdown(layout, 100_000)
        assert 0 < sb.bitmap_fraction < 0.05

    def test_merge(self):
        layout = compact_aligned_layout(SCHEMA, KEYS, 8, 0.6)
        a = storage_breakdown(layout, 1_000)
        b = storage_breakdown(layout, 500)
        merged = a.merge(b)
        assert merged.data_bytes == a.data_bytes + b.data_bytes

    def test_validation(self):
        layout = compact_aligned_layout(SCHEMA, KEYS, 8, 0.6)
        with pytest.raises(LayoutError):
            storage_breakdown(layout, -1)
        with pytest.raises(LayoutError):
            storage_breakdown(layout, 10, delta_fraction=-0.5)
