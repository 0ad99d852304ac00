"""PIM unit: WRAM staging and the Fig. 7b compute operations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DDR5_3200_TIMINGS, DeviceGeometry, PIMUnitConfig
from repro.errors import MemoryError_, ProtocolError
from repro.pim.device import Device
from repro.pim.pim_unit import (
    Condition,
    PIMUnit,
    bytes_to_uints,
    distinct,
    group_kernel,
    uints_to_bytes,
)
from repro.units import ceil_div


def make_unit(wram=64 * 1024, bank_bytes=64 * 1024) -> PIMUnit:
    device = Device(0, bank_bytes * 8, num_banks=8)
    return PIMUnit(
        0,
        device.banks[0],
        PIMUnitConfig(wram_bytes=wram),
        DDR5_3200_TIMINGS,
        DeviceGeometry(),
    )


def full_bitmap(unit: PIMUnit, offset: int, count: int) -> None:
    unit.wram_write(offset, np.full(ceil_div(count, 8), 0xFF, dtype=np.uint8))


class TestByteCodecs:
    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_roundtrip(self, width, data):
        values = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << (8 * width)) - 1),
                min_size=0,
                max_size=50,
            )
        )
        arr = np.array(values, dtype=np.uint64)
        assert np.array_equal(bytes_to_uints(uints_to_bytes(arr, width), width), arr)

    def test_little_endian(self):
        assert bytes_to_uints(np.array([1, 2], dtype=np.uint8), 2)[0] == 0x0201

    def test_validation(self):
        with pytest.raises(ProtocolError):
            bytes_to_uints(np.zeros(3, dtype=np.uint8), 2)
        with pytest.raises(ProtocolError):
            bytes_to_uints(np.zeros(4, dtype=np.uint8), 9)
        with pytest.raises(ProtocolError):
            uints_to_bytes(np.zeros(2, dtype=np.uint64), 0)


class TestCondition:
    def test_encode_decode(self):
        for op in ("eq", "ne", "lt", "le", "gt", "ge"):
            cond = Condition(op, 12345)
            assert Condition.decode(cond.encode()) == cond

    def test_evaluate(self):
        values = np.array([1, 5, 9], dtype=np.uint64)
        assert list(Condition("lt", 5).evaluate(values)) == [True, False, False]
        assert list(Condition("ge", 5).evaluate(values)) == [False, True, True]
        assert list(Condition("eq", 5).evaluate(values)) == [False, True, False]
        assert list(Condition("ne", 5).evaluate(values)) == [True, False, True]

    def test_validation(self):
        with pytest.raises(ProtocolError):
            Condition("between", 1)
        with pytest.raises(ProtocolError):
            Condition("eq", 1 << 56)
        with pytest.raises(ProtocolError):
            Condition.decode(0xFE)


class TestWram:
    def test_roundtrip(self):
        unit = make_unit()
        unit.wram_write(100, np.arange(50, dtype=np.uint8))
        assert np.array_equal(unit.wram_read(100, 50), np.arange(50, dtype=np.uint8))

    def test_bounds(self):
        unit = make_unit(wram=1024)
        with pytest.raises(MemoryError_):
            unit.wram_read(1020, 8)
        with pytest.raises(MemoryError_):
            unit.wram_write(-1, np.zeros(2, dtype=np.uint8))


class TestLoadStore:
    def test_dense_load(self):
        unit = make_unit()
        data = np.arange(256, dtype=np.uint8)
        unit.bank.device.write(unit.bank.start + 64, data)
        t = unit.load_strided(64, 256, stride=1, chunk=1, wram_offset=0)
        assert t > 0
        assert np.array_equal(unit.wram_read(0, 256), data)

    def test_strided_load_gathers_column(self):
        """Rows of width 8 with a 2-byte column at offset 0."""
        unit = make_unit()
        rows = np.arange(80, dtype=np.uint8).reshape(10, 8)
        unit.bank.device.write(unit.bank.start, rows.reshape(-1))
        unit.load_strided(0, 20, stride=8, chunk=2, wram_offset=0)
        expected = rows[:, :2].reshape(-1)
        assert np.array_equal(unit.wram_read(0, 20), expected)

    def test_strided_load_costs_full_granules(self):
        """Sub-8 B chunks still pay 8 B per row (the Fig. 11b effect)."""
        unit = make_unit()
        unit.bank.device.write(unit.bank.start, np.zeros(800, dtype=np.uint8))
        before = unit.stats.dram_bytes_read
        unit.load_strided(0, 20, stride=8, chunk=2, wram_offset=0)
        assert unit.stats.dram_bytes_read - before == 10 * 8

    def test_bandwidth_cap(self):
        """Long loads run at no more than the 1 GB/s unit bandwidth."""
        unit = make_unit()
        n = 32 * 1024
        unit.bank.device.write(unit.bank.start, np.zeros(n, dtype=np.uint8))
        t = unit.load_strided(0, n, stride=1, chunk=1, wram_offset=0)
        assert t >= n / unit.config.dram_bandwidth

    def test_invalid_stride(self):
        unit = make_unit()
        with pytest.raises(ProtocolError):
            unit.load_strided(0, 16, stride=2, chunk=4, wram_offset=0)


class TestFilter:
    def test_filter_matches_numpy(self):
        unit = make_unit()
        rng = np.random.RandomState(1)
        values = rng.randint(0, 1000, size=200).astype(np.uint64)
        unit.wram_write(1024, uints_to_bytes(values, 4))
        full_bitmap(unit, 0, 200)
        unit.op_filter(0, 1024, 4096, 4, Condition("lt", 500), 200)
        packed = unit.wram_read(4096, ceil_div(200, 8))
        mask = np.unpackbits(packed, bitorder="little")[:200].astype(bool)
        assert np.array_equal(mask, values < 500)

    def test_filter_respects_snapshot_bitmap(self):
        unit = make_unit()
        values = np.arange(16, dtype=np.uint64)
        unit.wram_write(1024, uints_to_bytes(values, 2))
        bitmap = np.packbits(np.array([i % 2 for i in range(16)], dtype=np.uint8), bitorder="little")
        unit.wram_write(0, bitmap)
        unit.op_filter(0, 1024, 4096, 2, Condition("ge", 0), 16)
        mask = np.unpackbits(unit.wram_read(4096, 2), bitorder="little")[:16]
        assert list(mask) == [i % 2 for i in range(16)]


class TestGroupAndAggregate:
    def test_group_dictionary_encoding(self):
        unit = make_unit()
        keys = np.array([5, 3, 5, 7, 3, 3], dtype=np.uint64)
        unit.wram_write(1024, uints_to_bytes(keys, 2))
        full_bitmap(unit, 0, 6)
        unit.op_group(0, 1024, 2048, 4096, 2, 6)
        indices = unit.wram_read(4096, 12).view(np.uint16)
        uniques = bytes_to_uints(unit.wram_read(2048, 3 * 2), 2)
        assert list(uniques) == [3, 5, 7]
        assert [int(uniques[i]) for i in indices] == [5, 3, 5, 7, 3, 3]

    def test_group_invisible_rows_marked(self):
        unit = make_unit()
        keys = np.array([1, 2], dtype=np.uint64)
        unit.wram_write(1024, uints_to_bytes(keys, 2))
        unit.wram_write(0, np.array([0b01], dtype=np.uint8))
        unit.op_group(0, 1024, 2048, 4096, 2, 2)
        indices = unit.wram_read(4096, 4).view(np.uint16)
        assert indices[1] == 0xFFFF

    def test_group_dict_overflow(self):
        unit = make_unit()
        keys = np.arange(300, dtype=np.uint64)
        unit.wram_write(1024, uints_to_bytes(keys, 2))
        full_bitmap(unit, 0, 300)
        with pytest.raises(ProtocolError):
            unit.op_group(0, 1024, 2048, 8192, 2, 300, dict_capacity=256)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 2**64 - 1), max_size=300),
        st.integers(1, 16),
    )
    def test_distinct_is_unique(self, keys, spread):
        """The sort-based helper equals ``np.unique``: values and dtype, on
        wide keys and on few distinct keys, repeated."""
        for array in (np.array(keys, dtype=np.uint64),
                      np.array(keys, dtype=np.uint64) % np.uint64(spread)):
            got, want = distinct(array), np.unique(array)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_group_kernel_empty_and_invisible_blocks(self):
        values = np.arange(16, dtype=np.uint64).reshape(2, 8)
        visible = np.zeros((2, 8), dtype=bool)
        dictionaries, indices = group_kernel(values, visible, 256)
        assert [d.dtype for d in dictionaries] == [np.uint64, np.uint64]
        assert [len(d) for d in dictionaries] == [0, 0]
        assert (indices == 0xFFFF).all()
        dictionaries, indices = group_kernel(values[:0], visible[:0], 256)
        assert dictionaries == [] and indices.shape == (0, 8)

    def test_group_kernel_capacity_boundary(self):
        """256 distinct keys fit one block's dictionary; 257 raise."""
        keys = np.arange(257, dtype=np.uint64)[::-1].copy()
        visible = np.ones((1, 257), dtype=bool)
        dictionaries, indices = group_kernel(keys[None, :256], visible[:, :256], 256)
        assert np.array_equal(dictionaries[0], np.arange(1, 257, dtype=np.uint64))
        assert np.array_equal(dictionaries[0][indices[0]], keys[:256])
        with pytest.raises(ProtocolError, match="257 keys > 256"):
            group_kernel(keys[None], visible, 256)

    def test_aggregation_sums_by_group(self):
        unit = make_unit()
        values = np.array([10, 20, 30, 40], dtype=np.uint64)
        indices = np.array([0, 1, 0, 0xFFFF], dtype=np.uint16)
        unit.wram_write(1024, uints_to_bytes(values, 4))
        unit.wram_write(2048, indices.view(np.uint8))
        unit.wram_write(4096, np.zeros(2 * 8, dtype=np.uint8))
        full_bitmap(unit, 0, 4)
        unit.op_aggregation(0, 1024, 2048, 4096, 4, 4, num_groups=2)
        acc = unit.wram_read(4096, 16).view(np.uint64)
        assert list(acc) == [40, 20]

    def test_aggregation_accumulates_across_phases(self):
        unit = make_unit()
        values = np.array([5], dtype=np.uint64)
        indices = np.array([0], dtype=np.uint16)
        unit.wram_write(1024, uints_to_bytes(values, 4))
        unit.wram_write(2048, indices.view(np.uint8))
        unit.wram_write(4096, np.zeros(8, dtype=np.uint8))
        full_bitmap(unit, 0, 1)
        unit.op_aggregation(0, 1024, 2048, 4096, 4, 1, num_groups=1)
        unit.op_aggregation(0, 1024, 2048, 4096, 4, 1, num_groups=1)
        assert unit.wram_read(4096, 8).view(np.uint64)[0] == 10


class TestHashAndJoin:
    def test_hash_deterministic_nonzero(self):
        unit = make_unit()
        values = np.arange(100, dtype=np.uint64)
        unit.wram_write(1024, uints_to_bytes(values, 4))
        full_bitmap(unit, 0, 100)
        unit.op_hash(0, 1024, 4096, 4, 100)
        first = unit.wram_read(4096, 400).view(np.uint32).copy()
        assert (first != 0).all()
        unit.op_hash(0, 1024, 8192, 4, 100)
        assert np.array_equal(first, unit.wram_read(8192, 400).view(np.uint32))

    def test_hash_marks_invisible_zero(self):
        unit = make_unit()
        unit.wram_write(1024, uints_to_bytes(np.array([7, 8], dtype=np.uint64), 4))
        unit.wram_write(0, np.array([0b10], dtype=np.uint8))
        unit.op_hash(0, 1024, 4096, 4, 2)
        hashes = unit.wram_read(4096, 8).view(np.uint32)
        assert hashes[0] == 0 and hashes[1] != 0

    def test_join_finds_matching_pairs(self):
        unit = make_unit()
        h1 = np.array([10, 20, 30], dtype=np.uint32)
        h2 = np.array([20, 99, 10, 20], dtype=np.uint32)
        unit.wram_write(0, h1.view(np.uint8))
        unit.wram_write(256, h2.view(np.uint8))
        unit.op_join(0, 256, 1024, 3, 4)
        out = unit.wram_read(1024, 4 + 3 * 8)
        count = out[:4].view(np.uint32)[0]
        pairs = set(map(tuple, out[4 : 4 + count * 8].view(np.uint32).reshape(-1, 2)))
        assert count == 3
        assert pairs == {(0, 2), (1, 0), (1, 3)}

    def test_join_ignores_zero_hashes(self):
        unit = make_unit()
        unit.wram_write(0, np.array([0], dtype=np.uint32).view(np.uint8))
        unit.wram_write(256, np.array([0], dtype=np.uint32).view(np.uint8))
        unit.op_join(0, 256, 1024, 1, 1)
        assert unit.wram_read(1024, 4).view(np.uint32)[0] == 0


class TestDefragCopy:
    def test_copy_rows_moves_bytes(self):
        unit = make_unit()
        unit.bank.device.write(unit.bank.start, np.arange(32, dtype=np.uint8))
        t = unit.copy_rows(np.array([0, 8]), np.array([64, 72]), width=8)
        assert t > 0
        assert np.array_equal(unit.bank.read(64, 16), np.arange(16, dtype=np.uint8))

    def test_copy_rows_length_mismatch(self):
        unit = make_unit()
        with pytest.raises(ProtocolError):
            unit.copy_rows(np.array([0]), np.array([8, 16]), width=8)

    def test_stats_accumulate(self):
        unit = make_unit()
        unit.bank.device.write(unit.bank.start, np.zeros(64, dtype=np.uint8))
        unit.load_strided(0, 64, 1, 1, 0)
        full_bitmap(unit, 128, 8)
        unit.wram_write(0, np.zeros(64, dtype=np.uint8))
        unit.op_filter(128, 0, 256, 8, Condition("eq", 0), 8)
        assert unit.stats.load_time > 0
        assert unit.stats.compute_time > 0
