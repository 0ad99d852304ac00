"""Block-circulant placement (§4.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import LayoutError
from repro.format.circulant import BlockCirculantPlacement


class TestRotation:
    def test_first_block_identity(self):
        p = BlockCirculantPlacement(4, block_rows=1024)
        for slot in range(4):
            assert p.device_for(0, slot) == slot

    def test_second_block_rotated_by_one(self):
        """Fig. 5b: block 1 maps column i to device (i + 1) % 4."""
        p = BlockCirculantPlacement(4, block_rows=1024)
        for slot in range(4):
            assert p.device_for(1024, slot) == (slot + 1) % 4

    def test_rotation_wraps(self):
        p = BlockCirculantPlacement(4, block_rows=1024)
        assert p.rotation(4 * 1024) == 0

    def test_block_of(self):
        p = BlockCirculantPlacement(8, block_rows=256)
        assert p.block_of(0) == 0
        assert p.block_of(255) == 0
        assert p.block_of(256) == 1
        assert p.block_of(511) == 1

    @given(
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=0, max_value=7),
    )
    def test_device_slot_bijection(self, row, slot):
        p = BlockCirculantPlacement(8)
        device = p.device_for(row, slot)
        assert (device - p.rotation(row)) % 8 == slot

    @given(st.integers(min_value=0, max_value=1 << 16))
    def test_row_slots_cover_all_devices(self, row):
        p = BlockCirculantPlacement(8)
        devices = {p.device_for(row, slot) for slot in range(8)}
        assert devices == set(range(8))


class TestParallelism:
    def test_single_block_uses_one_device(self):
        p = BlockCirculantPlacement(8, block_rows=1024)
        assert p.scan_parallelism(1024) == pytest.approx(1 / 8)

    def test_enough_blocks_saturate(self):
        p = BlockCirculantPlacement(8, block_rows=1024)
        assert p.scan_parallelism(8 * 1024) == 1.0
        assert p.scan_parallelism(80 * 1024) == 1.0

    def test_empty_scan(self):
        assert BlockCirculantPlacement(8).scan_parallelism(0) == 0.0

    def test_columns_spread_evenly(self):
        """Each column visits every device equally across d consecutive blocks."""
        p = BlockCirculantPlacement(4, block_rows=16)
        for slot in range(4):
            devices = [p.device_for(block * 16, slot) for block in range(4)]
            assert sorted(devices) == [0, 1, 2, 3]


class TestValidation:
    def test_bad_construction(self):
        with pytest.raises(LayoutError):
            BlockCirculantPlacement(0)
        with pytest.raises(LayoutError):
            BlockCirculantPlacement(8, block_rows=0)

    def test_bad_arguments(self):
        p = BlockCirculantPlacement(4)
        with pytest.raises(LayoutError):
            p.device_for(-1, 0)
        with pytest.raises(LayoutError):
            p.device_for(0, 4)
        with pytest.raises(LayoutError):
            p.rotation_of_block(-1)
