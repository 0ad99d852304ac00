"""Compact aligned format generation (Fig. 4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LayoutError
from repro.format.bandwidth import pim_column_efficiency
from repro.format.binpack import compact_aligned_layout, compact_aligned_layout_with_report
from repro.format.schema import Column, TableSchema

#: The paper's Fig. 3/4 CUSTOMER example.
PAPER_SCHEMA = TableSchema.of(
    "customer",
    [
        Column("id", 2),
        Column("d_id", 2),
        Column("w_id", 4),
        Column("zip", 9, kind="bytes"),
        Column("state", 2),
        Column("credit", 2),
    ],
)
PAPER_KEYS = ["id", "d_id", "w_id", "state"]


class TestPaperExample:
    """Reproduce the Fig. 4 walk-through (d = 4, th = 3/4)."""

    def test_two_parts_generated(self):
        layout = compact_aligned_layout(PAPER_SCHEMA, PAPER_KEYS, 4, 0.75)
        assert [p.row_width for p in layout.parts] == [4, 2]

    def test_iteration0_anchors_w_id(self):
        layout = compact_aligned_layout(PAPER_SCHEMA, PAPER_KEYS, 4, 0.75)
        slot0 = layout.parts[0].slots[0]
        assert [f.column for f in slot0.fields] == ["w_id"]

    def test_w_id_alone_in_part0(self):
        """No other key qualifies at th=3/4 (all are 2 B < 3 B)."""
        layout = compact_aligned_layout(PAPER_SCHEMA, PAPER_KEYS, 4, 0.75)
        part0_keys = {
            f.column
            for slot in layout.parts[0].slots
            for f in slot.fields
            if f.column in PAPER_KEYS
        }
        assert part0_keys == {"w_id"}

    def test_normals_fill_part0(self):
        layout = compact_aligned_layout(PAPER_SCHEMA, PAPER_KEYS, 4, 0.75)
        part0_normals = {
            f.column
            for slot in layout.parts[0].slots
            for f in slot.fields
            if f.column not in PAPER_KEYS
        }
        assert part0_normals == {"zip", "credit"}

    def test_iteration1_holds_remaining_keys(self):
        layout = compact_aligned_layout(PAPER_SCHEMA, PAPER_KEYS, 4, 0.75)
        part1_columns = {
            f.column for slot in layout.parts[1].slots for f in slot.fields
        }
        assert part1_columns == {"id", "d_id", "state"}

    def test_all_key_columns_fully_efficient(self):
        layout = compact_aligned_layout(PAPER_SCHEMA, PAPER_KEYS, 4, 0.75)
        for key in PAPER_KEYS:
            assert pim_column_efficiency(layout, key) == 1.0


def random_schema_and_keys(draw):
    n_cols = draw(st.integers(min_value=1, max_value=12))
    widths = [draw(st.integers(min_value=1, max_value=16)) for _ in range(n_cols)]
    columns = [
        Column(f"c{i}", w, kind="int" if w <= 8 else "bytes")
        for i, w in enumerate(widths)
    ]
    schema = TableSchema.of("t", columns)
    n_keys = draw(st.integers(min_value=0, max_value=n_cols))
    keys = [c.name for c in columns[:n_keys] if c.width <= 8 or True]
    return schema, keys


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_byte_placed_once(self, data):
        schema, keys = random_schema_and_keys(data.draw)
        th = data.draw(st.sampled_from([0.0, 0.3, 0.5, 0.6, 0.8, 1.0]))
        d = data.draw(st.sampled_from([2, 4, 8]))
        # UnifiedLayout's validator checks single placement + coverage.
        layout = compact_aligned_layout(schema, keys, d, th)
        assert layout.useful_bytes_per_row() == schema.row_bytes

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_th_guarantee_for_non_relaxed_keys(self, data):
        schema, keys = random_schema_and_keys(data.draw)
        th = data.draw(st.sampled_from([0.5, 0.6, 0.8, 1.0]))
        layout, report = compact_aligned_layout_with_report(schema, keys, 8, th)
        relaxed = set(report.relaxed_keys)
        for key in keys:
            if key in relaxed:
                continue
            assert pim_column_efficiency(layout, key) >= th - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_absorb_never_pads_more(self, data):
        schema, keys = random_schema_and_keys(data.draw)
        th = data.draw(st.sampled_from([0.5, 0.8, 1.0]))
        _, pad_report = compact_aligned_layout_with_report(schema, keys, 8, th, "pad")
        _, absorb_report = compact_aligned_layout_with_report(schema, keys, 8, th, "absorb")
        assert absorb_report.padding_bytes_per_row <= pad_report.padding_bytes_per_row

    def test_deterministic(self):
        a = compact_aligned_layout(PAPER_SCHEMA, PAPER_KEYS, 4, 0.6)
        b = compact_aligned_layout(PAPER_SCHEMA, PAPER_KEYS, 4, 0.6)
        assert repr(a.parts) == repr(b.parts)


class TestThTradeoff:
    """Lower th packs denser (fewer parts); higher th raises PIM efficiency."""

    SCHEMA = TableSchema.of(
        "t",
        [Column("k8", 8), Column("k4", 4), Column("k2", 2), Column("n", 30, kind="bytes")],
    )
    KEYS = ["k8", "k4", "k2"]

    def test_low_th_packs_keys_together(self):
        layout = compact_aligned_layout(self.SCHEMA, self.KEYS, 8, 0.0)
        assert layout.num_parts == 1

    def test_high_th_separates_widths(self):
        layout = compact_aligned_layout(self.SCHEMA, self.KEYS, 8, 1.0)
        widths = {layout.parts[layout.key_column_location(k).part_index].row_width for k in self.KEYS}
        assert widths == {8, 4, 2}
        for key in self.KEYS:
            assert pim_column_efficiency(layout, key) == 1.0

    def test_part_count_monotone_in_th(self):
        parts = [
            compact_aligned_layout(self.SCHEMA, self.KEYS, 8, th).num_parts
            for th in (0.0, 0.5, 1.0)
        ]
        assert parts == sorted(parts)


class TestErrors:
    def test_bad_th(self):
        with pytest.raises(LayoutError):
            compact_aligned_layout(PAPER_SCHEMA, PAPER_KEYS, 4, 1.5)

    def test_bad_devices(self):
        with pytest.raises(LayoutError):
            compact_aligned_layout(PAPER_SCHEMA, PAPER_KEYS, 0, 0.5)

    def test_unknown_key(self):
        with pytest.raises(LayoutError):
            compact_aligned_layout(PAPER_SCHEMA, ["nope"], 4, 0.5)

    def test_bad_leftover_policy(self):
        with pytest.raises(LayoutError):
            compact_aligned_layout_with_report(PAPER_SCHEMA, PAPER_KEYS, 4, 0.5, "steal")


class TestReport:
    def test_report_consistency(self):
        layout, report = compact_aligned_layout_with_report(PAPER_SCHEMA, PAPER_KEYS, 4, 0.75)
        assert report.num_parts == layout.num_parts
        assert report.key_parts + report.normal_parts == report.num_parts
        assert report.stored_bytes_per_row == layout.bytes_per_row()
        assert 0 <= report.padding_bytes_per_row < report.stored_bytes_per_row
