"""Devices, banks, and the two-dimensional rank memory."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DeviceGeometry
from repro.errors import MemoryError_
from repro.pim.device import Device
from repro.pim.memory import Rank, interleaved_to_local, local_to_interleaved

GEOM = DeviceGeometry()


def make_rank(device_bytes: int = 64 * 1024) -> Rank:
    return Rank(GEOM, device_bytes)


class TestDevice:
    def test_roundtrip(self):
        dev = Device(0, 4096, num_banks=8)
        data = np.arange(100, dtype=np.uint8)
        dev.write(300, data)
        assert np.array_equal(dev.read(300, 100), data)

    def test_bounds(self):
        dev = Device(0, 4096)
        with pytest.raises(MemoryError_):
            dev.read(4090, 10)
        with pytest.raises(MemoryError_):
            dev.write(-1, np.zeros(4, dtype=np.uint8))

    def test_banks_partition_device(self):
        dev = Device(0, 4096, num_banks=8)
        assert dev.bank_size == 512
        assert [b.start for b in dev.banks] == [i * 512 for i in range(8)]

    def test_bank_read_is_bank_relative(self):
        dev = Device(0, 4096, num_banks=8)
        dev.write(512 + 7, np.array([42], dtype=np.uint8))
        assert dev.banks[1].read(7, 1)[0] == 42

    def test_bank_bounds(self):
        dev = Device(0, 4096, num_banks=8)
        with pytest.raises(MemoryError_):
            dev.banks[0].read(510, 4)

    def test_invalid_construction(self):
        with pytest.raises(MemoryError_):
            Device(0, 0)
        with pytest.raises(MemoryError_):
            Device(0, 100, num_banks=7)  # not divisible


class TestAddressMapping:
    @given(st.integers(min_value=0, max_value=1 << 30))
    def test_mapping_roundtrip(self, addr):
        dev, local = interleaved_to_local(addr, 8, 8)
        assert local_to_interleaved(dev, local, 8, 8) == addr

    @given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=1 << 20))
    def test_inverse_roundtrip(self, device, local):
        addr = local_to_interleaved(device, local, 8, 8)
        assert interleaved_to_local(addr, 8, 8) == (device, local)

    def test_low_order_interleave(self):
        """Consecutive 8 B granules land on consecutive devices."""
        assert interleaved_to_local(0, 8, 8) == (0, 0)
        assert interleaved_to_local(8, 8, 8) == (1, 0)
        assert interleaved_to_local(56, 8, 8) == (7, 0)
        assert interleaved_to_local(64, 8, 8) == (0, 8)

    def test_rejects_negative(self):
        with pytest.raises(MemoryError_):
            interleaved_to_local(-1, 8, 8)
        with pytest.raises(MemoryError_):
            local_to_interleaved(8, 0, 8, 8)


class TestRank:
    def test_interleaved_roundtrip(self):
        rank = make_rank()
        data = np.random.RandomState(0).randint(0, 256, size=500, dtype=np.uint8)
        rank.write_interleaved(123, data)
        assert np.array_equal(rank.read_interleaved(123, 500), data)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=4000),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=255),
    )
    def test_interleaved_roundtrip_property(self, addr, length, fill):
        rank = make_rank(8192)
        data = np.full(length, fill, dtype=np.uint8)
        rank.write_interleaved(addr, data)
        assert np.array_equal(rank.read_interleaved(addr, length), data)

    def test_interleaving_stripes_across_devices(self):
        rank = make_rank()
        rank.write_interleaved(0, np.arange(64, dtype=np.uint8))
        for device in range(8):
            chunk = rank.device_read(device, 0, 8)
            assert np.array_equal(chunk, np.arange(device * 8, device * 8 + 8, dtype=np.uint8))

    def test_device_view_matches_interleaved_view(self):
        rank = make_rank()
        rank.device_write(3, 16, np.array([9, 8, 7], dtype=np.uint8))
        addr = 16 // 8 * 64 + 3 * 8 + 0
        assert list(rank.read_interleaved(addr, 3)) == [9, 8, 7]

    def test_size_and_bounds(self):
        rank = make_rank(8192)
        assert rank.size == 8 * 8192
        with pytest.raises(MemoryError_):
            rank.read_interleaved(rank.size - 3, 10)

    def test_geometry_validation(self):
        with pytest.raises(MemoryError_):
            Rank(GEOM, 1001)  # not a multiple of granularity/banks
