"""Physical table storage: addressing, row I/O, bitmaps, scan plans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DeviceGeometry
from repro.core.engine import PushTapEngine
from repro.core.storage import RankAllocator, TableStorage
from repro.errors import ConfigError, LayoutError, MemoryError_
from repro.format.binpack import compact_aligned_layout
from repro.format.schema import Column, TableSchema
from repro.mvcc.metadata import Region
from repro.pim.memory import Rank
from tests.test_vectorized_equivalence import device_of_slot, rotation_of, row_addr

GEOM = DeviceGeometry()
SCHEMA = TableSchema.of(
    "t", [Column("a", 4), Column("b", 2), Column("c", 8), Column("z", 10, kind="bytes")]
)
KEYS = ["a", "b", "c"]
BLOCK = 64


def make_storage(capacity=512, delta=256, block_rows=BLOCK):
    rank = Rank(GEOM, device_bytes=1 << 20)
    alloc = RankAllocator(rank)
    layout = compact_aligned_layout(SCHEMA, KEYS, 8, 0.5)
    return TableStorage(rank, alloc, layout, capacity, delta, block_rows=block_rows)


def row(i: int):
    return {"a": i, "b": i % 100, "c": i * 31, "z": bytes([i % 250] * 10)}


class TestRankAllocator:
    def test_blocks_never_straddle_banks(self):
        rank = Rank(GEOM, device_bytes=1 << 16)
        alloc = RankAllocator(rank)
        bank = rank.devices[0].bank_size
        for _ in range(40):
            addr = alloc.alloc_block(500)
            assert addr // bank == (addr + 499) // bank

    def test_exhaustion(self):
        rank = Rank(GEOM, device_bytes=8 * 1024)
        alloc = RankAllocator(rank)
        with pytest.raises(MemoryError_):
            for _ in range(100):
                alloc.alloc_block(1024)

    def test_oversized_block_rejected(self):
        rank = Rank(GEOM, device_bytes=8 * 1024)
        alloc = RankAllocator(rank)
        with pytest.raises(MemoryError_):
            alloc.alloc_block(2048)  # bank is 1024


class TestBlockRows:
    """Per-block bitmap slices are ``block_rows // 8`` bytes, so a block
    size that is not a positive multiple of 8 is refused at construction
    (12 and 20 used to answer Q1 wrong, 3 to crash in NumPy)."""

    @pytest.mark.parametrize("block_rows", [0, 3, 12, 20])
    def test_not_a_multiple_of_8_is_refused(self, block_rows):
        with pytest.raises(ConfigError, match=f"block_rows .* got {block_rows}$"):
            make_storage(block_rows=block_rows)

    @pytest.mark.parametrize("block_rows", [3, 12, 20])
    def test_engine_build_refuses_it(self, block_rows):
        with pytest.raises(ConfigError, match="block_rows"):
            PushTapEngine.build(scale=2e-5, block_rows=block_rows)


class TestAddressing:
    def test_row_addr_identical_across_devices(self):
        """The ADE alignment invariant: a row's slot bytes share one local
        address on every device."""
        st_ = make_storage()
        # By construction row_addr is device-independent; check block math.
        part = st_.layout.parts[0]
        a0 = row_addr(st_, Region.DATA, 0, 0)
        a1 = row_addr(st_, Region.DATA, 0, 1)
        assert a1 - a0 == part.row_width
        blk = row_addr(st_, Region.DATA, 0, BLOCK)
        assert blk != a0 + BLOCK * part.row_width or True  # new block base

    def test_rotation_changes_per_block(self):
        st_ = make_storage()
        dev_block0 = device_of_slot(st_, Region.DATA, 0, 0)
        dev_block1 = device_of_slot(st_, Region.DATA, BLOCK, 0)
        assert dev_block1 == (dev_block0 + 1) % 8

    def test_out_of_range(self):
        st_ = make_storage(capacity=128)
        with pytest.raises(MemoryError_):
            row_addr(st_, Region.DATA, 0, 128)


class TestRowIO:
    def test_roundtrip(self):
        st_ = make_storage()
        st_.write_row(7, -1, row(7))
        assert st_.read_row(7, -1) == row(7)

    def test_delta_region_io(self):
        st_ = make_storage()
        st_.write_row(0, 3, row(3))
        assert st_.read_row(0, 3) == row(3)
        assert st_.read_row(99, 3) == row(3)  # a delta row's row id is not consulted

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=511))
    def test_roundtrip_any_row(self, index):
        st_ = make_storage()
        st_.write_row(index, -1, row(index % 240))
        assert st_.read_row(index, -1) == row(index % 240)

    def test_rows_do_not_interfere(self):
        st_ = make_storage()
        for i in range(0, 130, 13):
            st_.write_row(i, -1, row(i))
        for i in range(0, 130, 13):
            assert st_.read_row(i, -1) == row(i)


class TestCopyRow:
    def test_copy_same_rotation(self):
        st_ = make_storage()
        # data row 0 has rotation 0; delta rows 0..63 (block 0) rotation 0.
        st_.write_row(0, 5, row(42))
        st_.write_columns(0, 5, -1, {})
        assert st_.read_row(0, -1) == row(42)

    def test_copy_rejects_rotation_mismatch(self):
        st_ = make_storage()
        # delta block 1 (rows 64..127) has rotation 1 != data row 0's 0.
        with pytest.raises(LayoutError, match="rotation"):
            st_.write_columns(0, 64, -1, {})


class TestBitmaps:
    def test_write_read_roundtrip(self):
        st_ = make_storage(capacity=512)
        bitmap = np.random.RandomState(0).randint(0, 256, size=64, dtype=np.uint8)
        st_.write_bitmap(Region.DATA, bitmap)
        for device in range(8):
            assert np.array_equal(st_.read_bitmap(Region.DATA, device), bitmap)

    def test_set_bit_updates_all_copies(self):
        st_ = make_storage(capacity=512)
        st_.write_bitmap(Region.DATA, np.zeros(64, dtype=np.uint8))
        bitmap = np.zeros(64, dtype=np.uint8)
        bitmap[1] = 0b10  # row 9
        st_.write_bitmap(Region.DATA, bitmap)
        for device in range(8):
            assert st_.read_bitmap(Region.DATA, device)[1] == 0b10

    def test_clear_bit(self):
        st_ = make_storage(capacity=512)
        st_.write_bitmap(Region.DATA, np.full(64, 0xFF, dtype=np.uint8))
        bitmap = np.full(64, 0xFF, dtype=np.uint8)
        bitmap[0] = 0xFE  # row 0
        st_.write_bitmap(Region.DATA, bitmap)
        assert st_.read_bitmap(Region.DATA)[0] == 0xFE

    def test_wrong_size_rejected(self):
        st_ = make_storage(capacity=512)
        with pytest.raises(LayoutError):
            st_.write_bitmap(Region.DATA, np.zeros(10, dtype=np.uint8))

    def test_block_slice_addr_is_byte_aligned(self):
        st_ = make_storage(capacity=512)
        base = st_.bitmap_addr(Region.DATA)
        assert st_.bitmap_block_slice_addr(Region.DATA, 2) == base + 2 * BLOCK // 8


class TestScanPlan:
    def test_plan_covers_all_rows(self):
        st_ = make_storage(capacity=512)
        scans = list(st_.column_scan_plan("a", Region.DATA, 300))
        assert sum(s.num_rows for s in scans) == 300
        assert [s.base_row for s in scans] == [i * BLOCK for i in range(len(scans))]

    def test_plan_rotates_devices(self):
        """Block-circulant placement spreads one column over all devices."""
        st_ = make_storage(capacity=512)
        scans = list(st_.column_scan_plan("a", Region.DATA, 512))
        devices = [s.device for s in scans]
        assert len(set(devices)) == 8

    def test_plan_stride_and_chunk(self):
        st_ = make_storage()
        part = st_.layout.parts[st_.layout.key_column_location("c").part_index]
        scan = next(iter(st_.column_scan_plan("c", Region.DATA, 10)))
        assert scan.stride == part.row_width
        assert scan.chunk == 8

    def test_plan_reads_actual_bytes(self):
        st_ = make_storage()
        st_.write_row(0, -1, row(99))
        scan = next(iter(st_.column_scan_plan("a", Region.DATA, 1)))
        bank_local = scan.dram_addr - scan.bank * st_.rank.devices[0].bank_size
        data = st_.rank.devices[scan.device].banks[scan.bank].read(bank_local, 4)
        assert int.from_bytes(bytes(data), "little") == 99

    def test_plan_from_a_later_block(self):
        st_ = make_storage(capacity=512)
        scans = list(st_.column_scan_plan("a", Region.DATA, 300))
        assert list(st_.column_scan_plan("a", Region.DATA, 300, 2)) == scans[2:]
        assert list(st_.column_scan_plan("a", Region.DATA, 300, len(scans))) == []

    def test_rows_past_the_allocated_blocks_raise(self):
        """The walk covers a region's allocated blocks — the whole last
        block too, past the capacity, as a delta high-water mark may — and
        raises for a row beyond them instead of dropping it."""
        st_ = make_storage(capacity=512, delta=200)
        delta_blocks = -(-200 // BLOCK)
        scans = list(st_.column_scan_plan("a", Region.DELTA, delta_blocks * BLOCK))
        assert sum(s.num_rows for s in scans) == delta_blocks * BLOCK > 200
        for region, rows in ((Region.DELTA, delta_blocks * BLOCK + 1), (Region.DATA, 513)):
            with pytest.raises(MemoryError_, match=f"table 't': {region} scan of {rows} rows"):
                list(st_.column_scan_plan("a", region, rows))
            with pytest.raises(MemoryError_, match="past its"):
                list(st_.column_scan_plan("a", region, rows, rows // BLOCK))

    def test_non_key_column_rejected(self):
        st_ = make_storage()
        with pytest.raises(LayoutError):
            list(st_.column_scan_plan("z", Region.DATA, 10))


class TestADEAlignmentEndToEnd:
    """The paper's central alignment claim: one interleaved CPU burst
    fetches a whole row-part from all devices simultaneously."""

    def test_single_line_fetches_all_slots(self):
        st_ = make_storage()
        st_.write_row(3, -1, row(42))
        part = st_.layout.parts[0]
        local = row_addr(st_, Region.DATA, part.index, 3)
        g = st_.rank.granularity
        d = st_.rank.num_devices
        # Interleaved line covering local bytes [local, local+W) of every
        # device: line k holds device-local bytes [k*g, (k+1)*g) of all d.
        lines = {}
        for offset in range(part.row_width):
            k = (local + offset) // g
            lines[k] = st_.rank.read_interleaved(k * g * d, g * d)
        # Reassemble each slot's bytes purely from the interleaved lines.
        rotation = rotation_of(st_, Region.DATA, 3)
        for slot in part.slots:
            device = (slot.slot_index + rotation) % d
            got = bytearray()
            for offset in range(part.row_width):
                addr = local + offset
                line = lines[addr // g]
                got.append(line[device * g + addr % g])
            direct = st_.rank.device_read(device, local, part.row_width)
            assert bytes(got) == direct.tobytes()

    def test_row_fits_expected_line_count(self):
        """cpu_lines_per_row is the exact number of distinct interleaved
        lines a row access touches."""
        from repro.format.bandwidth import cpu_lines_per_row
        from repro.core.config import dimm_system

        st_ = make_storage()
        geometry = dimm_system().geometry
        g = st_.rank.granularity
        touched = set()
        for part in st_.layout.parts:
            local = row_addr(st_, Region.DATA, part.index, 7)
            for offset in range(part.row_width):
                touched.add((part.index, (local + offset) // g))
        assert len(touched) == cpu_lines_per_row(st_.layout, geometry)
