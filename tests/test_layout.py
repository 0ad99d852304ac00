"""Layout descriptors: validation invariants and row packing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LayoutError
from repro.format.layout import DeviceSlot, FieldPlacement, TablePart, UnifiedLayout
from repro.format.schema import Column, TableSchema

SCHEMA = TableSchema.of(
    "t", [Column("a", 4), Column("b", 2), Column("z", 6, kind="bytes")]
)


def simple_layout() -> UnifiedLayout:
    """a | b+z[0:2] | z[2:6] padded, one part of width 4, d=4."""
    part = TablePart(
        0,
        4,
        (
            DeviceSlot(0, (FieldPlacement("a", 0, 0, 4),)),
            DeviceSlot(1, (FieldPlacement("b", 0, 0, 2), FieldPlacement("z", 0, 2, 2))),
            DeviceSlot(2, (FieldPlacement("z", 2, 0, 4),)),
            DeviceSlot(3, ()),
        ),
    )
    return UnifiedLayout(SCHEMA, [part], ["a", "b"], 4)


class TestValidation:
    def test_valid_layout_builds(self):
        layout = simple_layout()
        assert layout.num_parts == 1
        assert layout.bytes_per_row() == 16
        assert layout.useful_bytes_per_row() == 12
        assert layout.padding_bytes_per_row() == 4

    def test_rejects_overlapping_placements(self):
        with pytest.raises(LayoutError):
            TablePart(
                0,
                4,
                (
                    DeviceSlot(
                        0,
                        (
                            FieldPlacement("a", 0, 0, 4),
                            FieldPlacement("b", 0, 2, 2),
                        ),
                    ),
                ),
            )

    def test_rejects_slot_overflow(self):
        with pytest.raises(LayoutError):
            TablePart(0, 2, (DeviceSlot(0, (FieldPlacement("a", 0, 0, 4),)),))

    def test_rejects_unplaced_bytes(self):
        part = TablePart(0, 4, tuple(DeviceSlot(i) for i in range(4)))
        with pytest.raises(LayoutError, match="unplaced"):
            UnifiedLayout(SCHEMA, [part], [], 4)

    def test_rejects_double_placement(self):
        part = TablePart(
            0,
            6,
            (
                DeviceSlot(0, (FieldPlacement("a", 0, 0, 4),)),
                DeviceSlot(1, (FieldPlacement("a", 0, 0, 4), )),
                DeviceSlot(2, (FieldPlacement("b", 0, 0, 2), FieldPlacement("z", 0, 2, 4))),
                DeviceSlot(3, (FieldPlacement("z", 4, 0, 2),)),
            ),
        )
        with pytest.raises(LayoutError, match="twice"):
            UnifiedLayout(SCHEMA, [part], [], 4)

    def test_rejects_split_key_column(self):
        part = TablePart(
            0,
            6,
            (
                DeviceSlot(0, (FieldPlacement("a", 0, 0, 2),)),
                DeviceSlot(1, (FieldPlacement("a", 2, 0, 2),)),
                DeviceSlot(2, (FieldPlacement("b", 0, 0, 2), FieldPlacement("z", 0, 2, 4))),
                DeviceSlot(3, (FieldPlacement("z", 4, 0, 2),)),
            ),
        )
        # Fine as a normal column...
        UnifiedLayout(SCHEMA, [part], [], 4)
        # ...but rejected as a key column.
        with pytest.raises(LayoutError, match="contiguous"):
            UnifiedLayout(SCHEMA, [part], ["a"], 4)

    def test_rejects_wrong_slot_count(self):
        part = TablePart(
            0,
            12,
            (
                DeviceSlot(0, (
                    FieldPlacement("a", 0, 0, 4),
                    FieldPlacement("b", 0, 4, 2),
                    FieldPlacement("z", 0, 6, 6),
                )),
            ),
        )
        with pytest.raises(LayoutError, match="slots"):
            UnifiedLayout(SCHEMA, [part], [], 4)

    def test_rejects_unknown_key(self):
        part = simple_layout().parts[0]
        with pytest.raises(LayoutError):
            UnifiedLayout(SCHEMA, [part], ["nope"], 4)

    def test_placement_validation(self):
        with pytest.raises(LayoutError):
            FieldPlacement("a", 0, 0, 0)
        with pytest.raises(LayoutError):
            FieldPlacement("a", -1, 0, 2)


class TestIntrospection:
    def test_column_runs_ordered(self):
        layout = simple_layout()
        runs = layout.column_runs("z")
        assert [r.placement.col_offset for r in runs] == [0, 2]

    def test_key_column_location(self):
        layout = simple_layout()
        run = layout.key_column_location("a")
        assert run.part_index == 0 and run.slot_index == 0
        with pytest.raises(LayoutError):
            layout.key_column_location("z")


class TestPacking:
    def test_pack_row_shape(self):
        layout = simple_layout()
        packed = layout.pack_row({"a": 1, "b": 2, "z": b"abcdef"})
        assert len(packed) == 1
        assert len(packed[0]) == 4
        assert all(len(slot) == 4 for slot in packed[0])

    def test_pack_places_bytes_correctly(self):
        layout = simple_layout()
        packed = layout.pack_row({"a": 0x04030201, "b": 0xBBAA, "z": bytes(range(10, 16))})
        assert list(packed[0][0]) == [1, 2, 3, 4]
        assert list(packed[0][1]) == [0xAA, 0xBB, 10, 11]
        assert list(packed[0][2]) == [12, 13, 14, 15]
        assert list(packed[0][3]) == [0, 0, 0, 0]

    @settings(max_examples=50)
    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=65535),
        st.binary(min_size=6, max_size=6),
    )
    def test_roundtrip_property(self, a, b, z):
        layout = simple_layout()
        row = {"a": a, "b": b, "z": z}
        assert layout.unpack_row(layout.pack_row(row)) == row

    def test_unpack_validates_shape(self):
        layout = simple_layout()
        with pytest.raises(LayoutError):
            layout.unpack_row([])
        with pytest.raises(LayoutError):
            layout.unpack_row([[np.zeros(4, dtype=np.uint8)] * 3])
        with pytest.raises(LayoutError):
            layout.unpack_row([[np.zeros(5, dtype=np.uint8)] * 4])
