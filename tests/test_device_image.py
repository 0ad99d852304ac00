"""Device-image identity: ADE-wide storage I/O vs. a row-at-a-time oracle.

The storage layer moves rows, blocks, defragmentation passes and bitmap
copies as column slices of the rank's ``(devices × device_bytes)`` matrix,
and one-row writes as slices through the per-column and per-part plans.
:class:`OracleStorage` does the same work the way the seed did — one
``UnifiedLayout.pack_row`` per row, one ``Device.write`` per slot or run,
one device at a time — and every test here requires the two rank images
to be byte-identical.
"""

import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DeviceGeometry
from repro.core.defrag import DefragExecutor
from repro.core.snapshot import SnapshotManager
from repro.core.storage import RankAllocator, TableStorage
from repro.core.table import TableRuntime
from repro.errors import LayoutError, MemoryError_, SchemaError, TransactionError
from repro.experiments.baselines import PINS
from repro.format.binpack import compact_aligned_layout
from repro.format.schema import Column, TableSchema
from repro.mvcc.manager import MVCCManager
from repro.mvcc.metadata import Region
from repro.oltp.index import HashIndex
from repro.pim.memory import Rank, interleaved_to_local, local_to_interleaved
from repro.units import ceil_div, round_up
from tests.test_baselines import committed
from tests.test_vectorized_equivalence import (
    rotation_of,
    row_addr,
    to_columns,
    version_of,
    version_slot,
)

DEVICES = 8


# ---------------------------------------------------------------------------
# The oracle: the seed's per-slot loops, kept test-side
# ---------------------------------------------------------------------------
def oracle_write_columns(storage, row_id, src_delta, dst_delta, values):
    """``write_columns`` before it was one pass and ran the column plans:
    reject names outside the schema, encode in schema order, then
    :func:`oracle_copy_row` from the source version, then ``row_addr`` and
    one ``Rank.device_write`` per run."""
    for name in values:
        storage.layout.schema.column(name)
    encoded = {
        col.name: col.encode(values[col.name])
        for col in storage.layout.schema
        if col.name in values
    }
    oracle_copy_row(storage, row_id, src_delta, dst_delta)
    num_devices = storage.rank.num_devices
    region, row = version_slot(row_id, dst_delta)
    rotation = rotation_of(storage, region, row)
    for name, raw in encoded.items():
        for run in storage.layout.column_runs(name):
            p = run.placement
            addr = row_addr(storage, region, run.part_index, row)
            device = (run.slot_index + rotation) % num_devices
            storage.rank.device_write(
                device,
                addr + p.slot_offset,
                np.frombuffer(raw, dtype=np.uint8)[p.col_offset : p.col_offset + p.length],
            )


def oracle_copy_row(storage, row_id, src_delta, dst_delta):
    """``copy_row`` before the part plans: ``row_addr`` twice per part."""
    src_region, src = version_slot(row_id, src_delta)
    dst_region, dst = version_slot(row_id, dst_delta)
    if rotation_of(storage, src_region, src) != rotation_of(storage, dst_region, dst):
        raise LayoutError(
            "a row copy requires matching rotations (delta rows are allocated "
            "rotation-aligned for this reason)"
        )
    mem = storage.rank.mem
    for part in storage.layout.parts:
        src_addr = row_addr(storage, src_region, part.index, src)
        dst_addr = row_addr(storage, dst_region, part.index, dst)
        mem[:, dst_addr : dst_addr + part.row_width] = mem[
            :, src_addr : src_addr + part.row_width
        ]


def encode_rows(layout, rows):
    """``UnifiedLayout.encode_rows``, the row-dict encoder set-up had
    beside the column one: ``TableSchema.encode_row`` per row, flat."""
    chunks = []
    for values in rows:
        chunks.extend(layout.schema.encode_row(values).values())
        chunks.append(b"\x00")
    flat = np.frombuffer(b"".join(chunks), dtype=np.uint8)
    return flat.reshape(len(rows), layout.schema.row_bytes + 1)


def load_rows(table, rows):
    """``TableRuntime.load_rows``, the row-dict loader set-up had beside
    the column one: one ``write_rows`` per circulant block of a row
    iterator, then the block's keys into the table's index."""
    rows = iter(rows)
    count = 0
    while chunk := list(islice(rows, table.storage.block_rows)):
        stop = count + len(chunk)
        table._check_sized(stop)
        table.storage.write_rows(Region.DATA, count, chunk)
        if table.index is not None:
            table.index.insert_many([table.key(v) for v in chunk], range(count, stop))
        count = stop
    return count


class OracleStorage(TableStorage):
    """:class:`TableStorage` with every store done one device at a time."""

    def write_row(self, row_id, delta, values):
        self.write_rows(*version_slot(row_id, delta), [values])

    write_columns = oracle_write_columns

    def write_rows(self, region, start, rows):
        for offset, values in enumerate(rows):
            row = start + offset
            packed = self.layout.pack_row(values)
            rotation = rotation_of(self, region, row)
            for part in self.layout.parts:
                addr = row_addr(self, region, part.index, row)
                for slot in part.slots:
                    device = (slot.slot_index + rotation) % self.rank.num_devices
                    self.rank.devices[device].write(
                        addr, packed[part.index][slot.slot_index]
                    )

    def copy_row(self, row_id, src_delta, dst_delta):
        self.copy_slot(*version_slot(row_id, src_delta), *version_slot(row_id, dst_delta))

    def copy_slot(self, src_region, src, dst_region, dst):
        assert rotation_of(self, src_region, src) == rotation_of(self, dst_region, dst)
        for part in self.layout.parts:
            src_addr = row_addr(self, src_region, part.index, src)
            dst_addr = row_addr(self, dst_region, part.index, dst)
            for device in self.rank.devices:
                device.write(dst_addr, device.read(src_addr, part.row_width))

    def copy_rows(self, src_region, src_rows, dst_region, dst_rows):
        for src, dst in zip(src_rows, dst_rows):
            self.copy_slot(src_region, src, dst_region, dst)

    def write_bitmap(self, region, packed, first_byte=0):
        for device in self.rank.devices:
            device.write(self.bitmap_addr(region) + first_byte, packed)


# ---------------------------------------------------------------------------
# Random tables
# ---------------------------------------------------------------------------
@st.composite
def table_shapes(draw, block_rows_choices=(8, 256, 1024)):
    """(schema, key columns, block_rows, circulant) of a random table."""
    widths = draw(st.lists(st.integers(1, 20), min_size=1, max_size=9))
    columns = [
        Column(f"c{i}", w, kind="int" if w <= 8 and draw(st.booleans()) else "bytes")
        for i, w in enumerate(widths)
    ]
    keys = [c.name for c in columns if draw(st.booleans())]
    return (
        TableSchema.of("t", columns),
        keys,
        draw(st.sampled_from(block_rows_choices)),
        draw(st.booleans()),
    )


def make_rank(layout, block_rows, capacity, delta_rows):
    """A rank whose banks hold ~2.5 of the widest block, so consecutive
    blocks regularly skip to the next bank, pre-filled with noise so a
    stray or missing byte (padding included) shows in the image."""
    widest = max(p.row_width for p in layout.parts)
    bank = round_up(int(2.5 * block_rows * widest) + ceil_div(max(capacity, delta_rows), 8), 8)
    blocks = ceil_div(capacity, block_rows) + ceil_div(delta_rows, block_rows)
    need = sum(blocks * block_rows * p.row_width for p in layout.parts) + 2 * bank
    banks = 2 * ceil_div(need, bank) + 2
    rank = Rank(DeviceGeometry(banks_per_device=banks), bank * banks)
    rank.mem[:] = np.random.RandomState(0).randint(
        0, 256, size=rank.mem.shape, dtype=np.uint8
    )
    return rank


def make_storage(cls, shape, capacity, delta_rows):
    schema, keys, block_rows, circulant = shape
    layout = compact_aligned_layout(schema, keys, DEVICES, 0.6)
    rank = make_rank(layout, block_rows, capacity, delta_rows)
    return cls(
        rank, RankAllocator(rank), layout, capacity, delta_rows, block_rows, circulant
    )


def random_row(schema, rng):
    values = {}
    for col in schema:
        if col.kind == "int":
            values[col.name] = rng.randrange(col.max_int + 1)
        else:
            # Short values exercise the encoder's zero fill.
            values[col.name] = rng.randbytes(rng.choice((col.width, rng.randrange(col.width + 1))))
    return values


def stored(schema, values):
    """What a row reads back as (bytes columns come back zero-filled)."""
    return {c.name: c.decode(c.encode(values[c.name])) for c in schema}


def crosses_a_bank(storage, region, first, last):
    bank = storage.rank.devices[0].bank_size
    first_addr, last_addr = row_addr(storage, region, 0, first), row_addr(storage, region, 0, last)
    return first_addr // bank != last_addr // bank


# ---------------------------------------------------------------------------
# (a) write_column_rows / read_row
# ---------------------------------------------------------------------------
class TestWriteRowsImage:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_image_equals_oracle_and_rows_round_trip(self, data):
        shape = data.draw(table_shapes())
        schema, _, block_rows, _ = shape
        # 3 blocks and a partial last one.
        capacity = 3 * block_rows + data.draw(st.integers(1, block_rows - 1))
        region = data.draw(st.sampled_from([Region.DATA, Region.DELTA]))
        # Starts at, just before and just after block boundaries, or anywhere.
        start = data.draw(
            st.one_of(
                st.builds(
                    lambda b, off: min(capacity - 1, max(0, b * block_rows + off)),
                    st.integers(0, 3),
                    st.integers(-3, 3),
                ),
                st.integers(0, capacity - 1),
            )
        )
        count = data.draw(st.integers(0, min(capacity - start, block_rows + 19)))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        rows = [random_row(schema, rng) for _ in range(count)]

        fast = make_storage(TableStorage, shape, capacity, capacity)
        slow = make_storage(OracleStorage, shape, capacity, capacity)
        fast.write_column_rows(region, start, to_columns(schema, rows), count)
        slow.write_rows(region, start, rows)
        assert np.array_equal(fast.rank.mem, slow.rank.mem)
        for offset in sorted({0, count // 2, count - 1} & set(range(count))):
            version = version_of(region, start + offset)
            assert fast.read_row(*version) == stored(schema, rows[offset])
            assert fast.read_row(*version, schema.column_names) == stored(schema, rows[offset])

    def test_a_write_can_span_blocks_in_different_banks(self):
        """The property above does reach the case it names."""
        shape = (TableSchema.of("t", [Column("a", 8), Column("b", 13, "bytes")]), ["a"], 8, True)
        fast = make_storage(TableStorage, shape, 64, 64)
        slow = make_storage(OracleStorage, shape, 64, 64)
        spans = [
            (first, first + 11)
            for first in range(0, 50)
            if crosses_a_bank(fast, Region.DATA, first, first + 11)
        ]
        assert spans
        rng = random.Random(1)
        for first, last in spans:
            rows = [random_row(shape[0], rng) for _ in range(last - first + 1)]
            fast.write_column_rows(Region.DATA, first, to_columns(shape[0], rows), len(rows))
            slow.write_rows(Region.DATA, first, rows)
        assert np.array_equal(fast.rank.mem, slow.rank.mem)

    def test_write_row_is_write_rows_of_one(self):
        shape = (TableSchema.of("t", [Column("a", 4), Column("z", 9, "bytes")]), ["a"], 8, True)
        fast = make_storage(TableStorage, shape, 32, 32)
        slow = make_storage(OracleStorage, shape, 32, 32)
        for storage in (fast, slow):
            storage.write_row(0, 13, {"a": 7, "z": b"xyz"})
        assert np.array_equal(fast.rank.mem, slow.rank.mem)


class TestFailBeforeWriting:
    SHAPE = (TableSchema.of("orders", [Column("a", 4), Column("z", 9, "bytes")]), ["a"], 8, True)

    def rows(self, n):
        return [{"a": i, "z": b"q"} for i in range(n)]

    def write(self, storage, region, start, rows):
        storage.write_column_rows(region, start, to_columns(self.SHAPE[0], rows), len(rows))

    @pytest.mark.parametrize(
        "start,count,first_bad", [(20, 13, 32), (32, 1, 32), (40, 0, 40), (-1, 2, -1)]
    )
    def test_write_rows_past_capacity_stores_nothing(self, start, count, first_bad):
        storage = make_storage(TableStorage, self.SHAPE, 32, 16)
        before = storage.rank.mem.copy()
        with pytest.raises(MemoryError_) as err:
            self.write(storage, Region.DATA, start, self.rows(count))
        assert np.array_equal(storage.rank.mem, before)
        for fact in ("'orders'", "data", f"row {first_bad} ", "[0, 32)"):
            assert fact in str(err.value)

    def test_delta_region_has_its_own_capacity(self):
        storage = make_storage(TableStorage, self.SHAPE, 32, 16)
        with pytest.raises(MemoryError_, match=r"delta region: row 16 .*\[0, 16\)"):
            self.write(storage, Region.DELTA, 10, self.rows(7))

    def test_a_row_that_does_not_encode_stores_nothing(self):
        storage = make_storage(TableStorage, self.SHAPE, 32, 16)
        before = storage.rank.mem.copy()
        rows = self.rows(5) + [{"a": 1 << 40, "z": b""}]
        with pytest.raises(SchemaError, match="out of range for column 'a'"):
            self.write(storage, Region.DATA, 0, rows)
        assert np.array_equal(storage.rank.mem, before)

    def test_row_addr_and_copy_row_keep_their_messages(self):
        storage = make_storage(TableStorage, self.SHAPE, 32, 16)
        with pytest.raises(MemoryError_, match=r"data row 32 out of range \[0, 32\)"):
            row_addr(storage, Region.DATA, 0, 32)
        with pytest.raises(LayoutError, match="a row copy requires matching rotations"):
            storage.write_columns(0, 8, -1, {})
        with pytest.raises(LayoutError, match="a row copy requires matching rotations"):
            storage.copy_rows(Region.DELTA, [0, 8], Region.DATA, [0, 0])
        with pytest.raises(MemoryError_, match=r"delta row 16 out of range \[0, 16\)"):
            storage.copy_rows(Region.DELTA, [0, 16], Region.DATA, [0, 1])

    @staticmethod
    def same_error(storage, write, oracle, error, pair=None):
        """``write`` and ``oracle`` raise the same ``error`` and neither
        stores a byte. Production's range and rotation errors name the
        table in front of the oracle's message; a rotation error also
        names the mismatched ``pair`` after it."""
        before = storage.rank.mem.copy()
        with pytest.raises(error) as got:
            write()
        with pytest.raises(error) as want:
            oracle()
        assert np.array_equal(storage.rank.mem, before)
        prefix = "table 'orders': " if error in (MemoryError_, LayoutError) else ""
        suffix = f": {pair}" if pair else ""
        assert str(got.value) == prefix + str(want.value) + suffix
        return str(got.value)

    @pytest.mark.parametrize(
        "versions, values, error, text",
        [
            ((5, -1, -1), {"a": 1, "z": b"x" * 10}, SchemaError, "column 'z'"),
            ((32, -1, -1), {"z": b"x" * 10}, SchemaError, "column 'z'"),
            ((32, -1, -1), {"a": 1 << 40, "z": b""}, SchemaError, "column 'a'"),
            ((32, -1, -1), {"a": 1}, MemoryError_, r"data row 32 out of range [0, 32)"),
            ((0, 16, 16), {"z": b"q"}, MemoryError_, "delta row 16 out of range [0, 16)"),
            # Two versions. Data row 16 and delta row 16 sit in block 2
            # (rotation 2), delta row 8 in block 1 (rotation 1).
            ((16, 8, -1), {"a": 1}, LayoutError,
             "delta row 8 (rotation 1) -> data row 16 (rotation 2)"),
            ((16, 16, -1), {"a": 1}, MemoryError_, "delta row 16 out of range [0, 16)"),
            ((16, -1, 16), {"a": 1}, MemoryError_, "delta row 16 out of range [0, 16)"),
            # Data row 3 and delta row 5 are both in block 0: the copy
            # is valid, and still nothing moves.
            ((3, -1, 5), {"a": 1, "z": b"x" * 10}, SchemaError, "column 'z'"),
            # An unknown name raises before 'a' fails to encode; the
            # first unknown in the caller's order is named.
            ((3, -1, 5), {"a": 1 << 40, "nope": 1, "b": 2}, SchemaError,
             "table 'orders' has no column 'nope'"),
        ],
        ids=["encode error after a good column", "encode before range", "first column first",
             "data range", "delta range", "copy rotation", "copy src range", "copy dst range",
             "encode error with a copy pending", "unknown column before any encode"],
    )
    def test_write_columns_errors(self, versions, values, error, text):
        """Every error of the install is ``oracle_copy_row``'s, then
        ``oracle_write_columns``', and leaves memory as it was."""
        storage = make_storage(TableStorage, self.SHAPE, 32, 16)
        message = self.same_error(
            storage,
            lambda: storage.write_columns(*versions, values),
            lambda: oracle_write_columns(storage, *versions, values),
            error,
            pair=text if error is LayoutError else None,
        )
        assert message.endswith(text) if error is not SchemaError else text in message

    @pytest.mark.parametrize(
        "versions, error, text",
        [
            # Delta row 16 sits in block 2 (rotation 2), data row 0 in
            # block 0 (rotation 0).
            ((0, 16, -1), LayoutError, "delta row 16 (rotation 2) -> data row 0 (rotation 0)"),
            # Both out of range at rotation 2 (blocks 2 and 10): src first.
            ((80, 16, -1), MemoryError_, "delta row 16 out of range [0, 16)"),
            ((64, 0, -1), MemoryError_, "data row 64 out of range [0, 32)"),
        ],
        ids=["rotation before range", "src before dst", "dst"],
    )
    def test_copy_row_errors(self, versions, error, text):
        storage = make_storage(TableStorage, self.SHAPE, 32, 16)
        message = self.same_error(
            storage,
            lambda: storage.write_columns(*versions, {}),
            lambda: oracle_copy_row(storage, *versions),
            error,
            pair=text if error is LayoutError else None,
        )
        assert message.endswith(text)

    @pytest.mark.parametrize(
        "call, text",
        [
            (lambda s: s.write_columns(3, 9, -1, {}),
             "delta row 9 (rotation 1) -> data row 3 (rotation 0)"),
            # Pairs 0 and 1 match; pairs 2 and 3 do not: the first is named.
            (lambda s: s.copy_rows(Region.DELTA, [0, 1, 9, 10], Region.DATA, [0, 1, 2, 3]),
             "delta row 9 (rotation 1) -> data row 2 (rotation 0)"),
            (lambda s: s.copy_rows(Region.DELTA, [2, 15], Region.DATA, [31, 4]),
             "delta row 2 (rotation 0) -> data row 31 (rotation 3)"),
        ],
        ids=["copy_row", "copy_rows", "copy_rows first pair"],
    )
    def test_rotation_errors_name_the_table_and_the_pair(self, call, text):
        """A rotation mismatch names the table and the first mismatched
        (source, destination) pair, and stores nothing."""
        storage = make_storage(TableStorage, self.SHAPE, 32, 16)
        before = storage.rank.mem.copy()
        with pytest.raises(LayoutError) as err:
            call(storage)
        assert str(err.value) == (
            "table 'orders': a row copy requires matching rotations (delta rows are "
            f"allocated rotation-aligned for this reason): {text}"
        )
        assert np.array_equal(storage.rank.mem, before)

    @pytest.mark.parametrize(
        "call, text",
        [
            (lambda s: s.read_row(32, -1, ["a"]), "data row 32 out of range [0, 32)"),
            (lambda s: s.read_rows(Region.DELTA, [3, 16], ["a"]),
             "delta row 16 out of range [0, 16)"),
            (lambda s: s.copy_rows(Region.DELTA, [0, 16], Region.DATA, [0, 1]),
             "delta row 16 out of range [0, 16)"),
            (lambda s: s.copy_rows(Region.DELTA, [0, 1], Region.DATA, [0, 32]),
             "data row 32 out of range [0, 32)"),
            (lambda s: s.write_columns(3, -9, -1, {"a": 1}),
             "delta row -9 out of range [0, 16)"),
            (lambda s: s.write_columns(3, -1, -9, {}), "delta row -9 out of range [0, 16)"),
            (lambda s: s.write_columns(-9, -1, 3, {}), "data row -9 out of range [0, 32)"),
        ],
        ids=[
            "read_row", "read_rows", "copy_rows src", "copy_rows dst",
            "write_columns negative src", "write_columns negative dst",
            "write_columns negative row",
        ],
    )
    def test_range_errors_name_the_table(self, call, text):
        """The readers', the block copy's and the install's range errors
        name the table in front of the region's own message, and store
        nothing — a negative version too, whatever its block's rotation
        would be."""
        storage = make_storage(TableStorage, self.SHAPE, 32, 16)
        before = storage.rank.mem.copy()
        with pytest.raises(MemoryError_) as err:
            call(storage)
        assert str(err.value) == f"table 'orders': {text}"
        assert np.array_equal(storage.rank.mem, before)


# ---------------------------------------------------------------------------
# (a') one-row writes: write_row and write_columns
# ---------------------------------------------------------------------------
class TestOneRowWritesImage:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_update_sequences_equal_the_per_slot_oracle(self, data):
        """Full rows, column subsets and installs from a same-rotation
        version (with a possibly empty change set), in both regions, on
        rows either side of every block boundary — and so of the bank
        boundaries ``make_rank`` puts between blocks."""
        shape = data.draw(table_shapes(block_rows_choices=(8, 256)))
        schema, _, block_rows, _ = shape
        capacity = 4 * block_rows
        fast = make_storage(TableStorage, shape, capacity, capacity)
        slow = make_storage(OracleStorage, shape, capacity, capacity)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        edges = [0, capacity - 1] + [b * block_rows + d for b in (1, 2, 3) for d in (-1, 0)]
        rows = st.one_of(st.sampled_from(edges), st.integers(0, capacity - 1))
        regions = st.sampled_from([Region.DATA, Region.DELTA])
        for _ in range(data.draw(st.integers(1, 25))):
            region, row = data.draw(regions), data.draw(rows)
            op = data.draw(st.sampled_from(["row", "columns", "columns", "copy"]))
            if op == "row":
                values = random_row(schema, rng)
                for storage in (fast, slow):
                    storage.write_row(*version_of(region, row), values)
            elif op == "columns":
                names = rng.sample(schema.column_names, rng.randint(1, len(schema)))
                changes = {name: random_row(schema, rng)[name] for name in names}
                row_id, delta = version_of(region, row)
                for storage in (fast, slow):
                    storage.write_columns(row_id, delta, delta, changes)
            else:
                # Two versions of one row: data slot → delta (an update),
                # delta → delta (an update of an updated row), delta → data
                # slot (a defragmentation move), or the data slot onto itself.
                other = row // block_rows * block_rows + rng.randrange(block_rows)
                to_data = data.draw(regions) == Region.DATA
                row_id = row if region == Region.DATA else other
                src = -1 if region == Region.DATA else row
                dst = -1 if to_data else other
                names = rng.sample(schema.column_names, rng.randint(0, len(schema)))
                changes = {name: random_row(schema, rng)[name] for name in names}
                fast.write_columns(row_id, src, dst, changes)
                slow.copy_row(row_id, src, dst)
                slow.write_columns(row_id, dst, dst, changes)
            assert np.array_equal(fast.rank.mem, slow.rank.mem), op

    def test_a_column_split_over_parts_at_bank_edges(self):
        """The property above does reach its named case: a normal column
        in seven runs over two parts, written on rows whose blocks sit in
        different banks."""
        schema = TableSchema.of(
            "t", [Column("k", 4), Column("n", 20, "bytes"), Column("m", 17, "bytes")]
        )
        shape = (schema, ["k"], 8, True)
        fast = make_storage(TableStorage, shape, 64, 64)
        slow = make_storage(OracleStorage, shape, 64, 64)
        runs = fast.layout.column_runs("m")
        assert len(runs) == 7 and len({run.part_index for run in runs}) == 2
        edges = [r for r in range(1, 64) if crosses_a_bank(fast, Region.DATA, r - 1, r)]
        assert edges
        rng = random.Random(2)
        for row in edges:
            for region in (Region.DATA, Region.DELTA):
                for version in (version_of(region, row - 1), version_of(region, row)):
                    values = random_row(schema, rng)
                    row_id, delta = version
                    for storage in (fast, slow):
                        storage.write_row(row_id, delta, values)
                        storage.write_columns(row_id, delta, delta, {"m": values["n"][:17], "k": 9})
        assert np.array_equal(fast.rank.mem, slow.rank.mem)
        assert fast.read_row(0, edges[-1], ["m", "k"])["k"] == 9


# ---------------------------------------------------------------------------
# (b) row copies and a whole defragmentation pass
# ---------------------------------------------------------------------------
BDW_CPU, BDW_PIM = 102.4, 1024.0


def make_table(cls, shape, initial, capacity, delta_blocks, key_columns=()):
    """A table runtime and its defragmentation executor; ``key_columns``
    give it an index named ``pk``."""
    schema, _, block_rows, _ = shape
    storage = make_storage(cls, shape, capacity, delta_blocks * block_rows)
    mvcc = MVCCManager(initial, capacity, block_rows, DEVICES, delta_blocks)
    snapshots = SnapshotManager(storage, mvcc)
    table = TableRuntime(
        "t", schema, storage.layout, storage, mvcc, snapshots,
        index=HashIndex("pk") if key_columns else None, key_columns=tuple(key_columns),
    )
    executor = DefragExecutor(storage, mvcc, snapshots, BDW_CPU, BDW_PIM)
    return table, executor


class TestCopyAndDefragImage:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_copy_row_image_equals_oracle(self, data):
        shape = data.draw(table_shapes())
        schema, _, block_rows, circulant = shape
        capacity = 2 * DEVICES * block_rows if block_rows == 8 else 3 * block_rows
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        fast = make_storage(TableStorage, shape, capacity, capacity)
        slow = make_storage(OracleStorage, shape, capacity, capacity)
        for _ in range(data.draw(st.integers(1, 12))):
            src = data.draw(st.integers(0, capacity - 1))
            # Same rotation: same block, or (block 8 only) a block d away.
            blocks = [
                b
                for b in range(ceil_div(capacity, block_rows))
                if not circulant or (b - src // block_rows) % DEVICES == 0
            ]
            dst = data.draw(st.sampled_from(blocks)) * block_rows + data.draw(
                st.integers(0, block_rows - 1)
            )
            values = random_row(schema, rng)
            for storage in (fast, slow):
                storage.write_row(dst, src, values)
            fast.write_columns(dst, src, -1, {})
            slow.copy_row(dst, src, -1)
            assert fast.read_row(dst, -1) == stored(schema, values)
        assert np.array_equal(fast.rank.mem, slow.rank.mem)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_defrag_after_random_history_equals_oracle(self, data):
        shape = data.draw(table_shapes(block_rows_choices=(8, 256)))
        schema, _, block_rows, _ = shape
        initial = data.draw(st.integers(1, 5 * block_rows if block_rows == 8 else 300))
        capacity = initial + 40
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        fast, fast_defrag = make_table(TableStorage, shape, initial, capacity, 4 * DEVICES)
        slow, slow_defrag = make_table(OracleStorage, shape, initial, capacity, 4 * DEVICES)
        rows = [random_row(schema, rng) for _ in range(initial)]
        assert fast.load_columns([to_columns(schema, rows)]) == initial
        assert load_rows(slow, iter(rows)) == initial
        model = {row_id: stored(schema, values) for row_id, values in enumerate(rows)}

        def update(model, row_id):
            columns = rng.sample(schema.column_names, rng.randint(1, len(schema)))
            changes = {c: random_row(schema, rng)[c] for c in columns}
            # One install against a decode-merge-reencode of the whole
            # row through the per-slot oracle.
            fast.update_row(row_id, ts, changes)
            model[row_id] = stored(schema, {**model[row_id], **changes})
            slow.storage.write_row(row_id, slow.mvcc.update(row_id, ts)[1], model[row_id])

        def insert(model):
            values = random_row(schema, rng)
            ids = {table.insert_row(ts, values) for table in (fast, slow)}
            assert len(ids) == 1
            model[ids.pop()] = stored(schema, values)

        def delete(model, row_id):
            for table in (fast, slow):
                table.mvcc.delete(row_id, ts)
            del model[row_id]

        ts = 0
        ops = data.draw(
            st.lists(
                st.sampled_from(
                    ["update", "update", "insert", "delete", "snapshot", "defrag", "abort",
                     "repeat"]
                ),
                max_size=30,
            )
        )
        for op in ops + ["defrag"]:
            ts += 1
            live = sorted(model)
            if op == "update" and live:
                update(model, rng.choice(live))
            elif op == "repeat" and live:
                # One transaction updating one row twice: the second
                # write overwrites its own version in place.
                row_id = rng.choice(live)
                update(model, row_id)
                update(model, row_id)
            elif op == "insert":
                insert(model)
            elif op == "delete" and live:
                delete(model, rng.choice(live))
            elif op == "abort":
                # 1-3 writes at one ts, then the transaction rolls back:
                # its versions stay in released delta rows (or a data
                # slot past the live rows) and the model is unchanged.
                pending = dict(model)
                for _ in range(rng.randint(1, 3)):
                    write = rng.choice(["update", "insert", "delete"] if pending else ["insert"])
                    if write == "update":
                        update(pending, rng.choice(sorted(pending)))
                    elif write == "insert":
                        insert(pending)
                    else:
                        delete(pending, rng.choice(sorted(pending)))
                for table in (fast, slow):
                    table.rollback(ts)
            elif op == "snapshot":
                for table in (fast, slow):
                    table.snapshots.update_to(ts)
            elif op == "defrag":
                moved = {ex.run(ts).moved_rows for ex in (fast_defrag, slow_defrag)}
                assert len(moved) == 1
            assert np.array_equal(fast.storage.rank.mem, slow.storage.rank.mem), op

        # After the closing pass every live row is home in the data region.
        for row_id, values in model.items():
            assert fast.storage.read_row(row_id, -1) == values
            assert fast.read_row(row_id, ts) == values

    @pytest.mark.parametrize("block_rows", [8, 256])
    @pytest.mark.parametrize("circulant", [True, False], ids=["circulant", "flat"])
    def test_copy_rows_equals_a_copy_row_loop(self, circulant, block_rows):
        """The item gather/store of ``copy_rows`` against one row copy
        (``write_columns`` with no changes) per (delta, data) pair, on
        parts 13, 3 and 1 bytes wide."""
        schema = TableSchema.of(
            "t", [Column("a", 13, "bytes"), Column("b", 3, "bytes"), Column("c", 1, "bytes"),
                  Column("n", 20, "bytes")],
        )
        shape = (schema, ["a", "b", "c"], block_rows, circulant)
        capacity = 3 * DEVICES * block_rows
        fast = make_storage(TableStorage, shape, capacity, capacity)
        loop = make_storage(TableStorage, shape, capacity, capacity)
        assert [part.row_width for part in fast.layout.parts] == [13, 3, 1]
        rng = np.random.default_rng(block_rows + circulant)
        rows = rng.choice(capacity, size=capacity // 3, replace=False)
        # Each source is a delta row of its destination's rotation.
        rounds = rng.integers(0, 3, size=rows.size) * DEVICES
        rotations = rows // block_rows % DEVICES if circulant else rng.integers(0, DEVICES, rows.size)
        blocks = rotations + rounds
        deltas = blocks * block_rows + rng.integers(0, block_rows, size=rows.size)
        before = fast.rank.mem.copy()
        fast.copy_rows(Region.DELTA, deltas, Region.DATA, rows)
        for row_id, delta in zip(rows.tolist(), deltas.tolist()):
            loop.write_columns(row_id, delta, -1, {})
        assert not np.array_equal(fast.rank.mem, before)
        assert np.array_equal(fast.rank.mem, loop.rank.mem)

    def test_bitmap_stores_equal_oracle(self):
        shape = (TableSchema.of("t", [Column("a", 4)]), ["a"], 8, True)
        fast = make_storage(TableStorage, shape, 100, 50)
        slow = make_storage(OracleStorage, shape, 100, 50)
        noise = np.random.RandomState(3)
        data, delta = (noise.randint(0, 256, size=n, dtype=np.uint8) for n in (13, 7))
        for storage in (fast, slow):
            storage.write_bitmap(Region.DATA, data)
            storage.write_bitmap(Region.DELTA, delta)
            storage.write_bitmap(Region.DATA, delta[:4], first_byte=6)
            storage.write_bitmap(Region.DELTA, data[:2], first_byte=5)
        assert np.array_equal(fast.rank.mem, slow.rank.mem)
        assert np.array_equal(fast.read_bitmap(Region.DELTA, 5), slow.read_bitmap(Region.DELTA, 5))


# ---------------------------------------------------------------------------
# The one loader
# ---------------------------------------------------------------------------
class TestLoadRows:
    """The loader on a table indexed by its key column ``k``."""

    SHAPE = (TableSchema.of("t", [Column("k", 4), Column("v", 6, "bytes")]), ["k"], 8, True)

    def rows(self, n):
        return [{"k": 100 + i, "v": bytes([i % 251] * 6)} for i in range(n)]

    def blocks(self, n, size=8):
        rows = self.rows(n)
        return [to_columns(self.SHAPE[0], rows[at : at + size]) for at in range(0, n, size)]

    def table(self, initial, cls=TableStorage):
        return make_table(cls, self.SHAPE, initial, 40, DEVICES, key_columns=("k",))[0]

    def test_consumes_a_generator_block_by_block_and_feeds_the_index(self):
        table = self.table(21)
        pulled = []

        def generate():
            for block in self.blocks(21):
                pulled.append(len(block["k"]))
                yield block

        written_after = []
        store = table.storage.write_column_rows

        def spy(region, start, columns, n):
            written_after.append((start, n, sum(pulled)))
            store(region, start, columns, n)

        table.storage.write_column_rows = spy
        assert table.load_columns(generate()) == 21
        # One store per block of 8, each issued before the next is generated.
        assert written_after == [(0, 8, 8), (8, 8, 16), (16, 5, 21)]
        assert [table.index.probe(100 + i) for i in range(21)] == list(range(21))
        assert table.read_row(20, 0) == stored(self.SHAPE[0], self.rows(21)[20])

    def test_image_equals_oracle(self):
        fast, slow = self.table(21), self.table(21, OracleStorage)
        fast.load_columns(self.blocks(21))
        load_rows(slow, self.rows(21))
        assert np.array_equal(fast.storage.rank.mem, slow.storage.rank.mem)

    def test_more_rows_than_sized_for_fails_before_the_offending_block(self):
        table = self.table(5)
        before = table.storage.rank.mem.copy()
        with pytest.raises(MemoryError_, match=r"table 't' data region: row 5 .*\[0, 5\)"):
            table.load_columns(self.blocks(6))
        assert np.array_equal(table.storage.rank.mem, before)
        assert len(table.index) == 0

    def test_duplicate_index_key_raises(self):
        table = self.table(2)
        with pytest.raises(TransactionError, match="duplicate key"):
            table.load_columns([to_columns(self.SHAPE[0], [self.rows(1)[0]] * 2)])


    def test_a_duplicate_key_leaves_the_index_as_it_was(self):
        """Bulk insert is per table and all-or-nothing: a duplicate in
        the second block leaves none of the first block's keys in."""
        table = self.table(12)
        rows = self.rows(12)
        rows[10] = rows[9]
        with pytest.raises(TransactionError, match="duplicate key 109"):
            table.load_columns(
                to_columns(self.SHAPE[0], rows[at : at + 8]) for at in (0, 8)
            )
        assert list(table.index.items()) == []


class TestLoadColumns:
    """The column-array loader, against the row-dict one (``load_rows``)."""

    SHAPE = TestLoadRows.SHAPE
    rows = TestLoadRows.rows
    blocks = TestLoadRows.blocks
    table = TestLoadRows.table

    @pytest.mark.parametrize("size", [8, 5, 21])
    def test_image_and_index_equal_load_rows(self, size):
        """Blocks aligned with the storage blocks, straddling them, and
        one block for the whole table."""
        by_columns, by_rows = self.table(21), self.table(21, OracleStorage)
        assert by_columns.load_columns(self.blocks(21, size)) == 21
        assert load_rows(by_rows, self.rows(21)) == 21
        assert np.array_equal(by_columns.storage.rank.mem, by_rows.storage.rank.mem)
        indexes = by_columns.index, by_rows.index
        assert list(indexes[0].items()) == list(indexes[1].items())
        assert all(type(key) is int for key, _ in indexes[0].items())

    def test_several_key_columns_index_their_packed_values(self):
        """First column highest: ``a << 16 | b`` for two 2-byte columns."""
        shape = (TableSchema.of("t", [Column("a", 2), Column("b", 2)]), ["a"], 8, True)
        table, _ = make_table(TableStorage, shape, 3, 40, DEVICES, key_columns=("a", "b"))
        block = {"a": np.array([5, 6, 5]), "b": np.array([1, 1, 2])}
        table.load_columns([block])
        packed = [5 << 16 | 1, 6 << 16 | 1, 5 << 16 | 2]
        assert [key for key, _ in table.index.items()] == packed
        assert all(type(key) is int for key, _ in table.index.items())
        assert table.index.probe(5 << 16 | 2) == 2
        assert table.index.probe((5, 2)) == 2
        assert [table.stored_key(row) for row in range(3)] == packed

    def test_blocks_are_stored_as_they_arrive(self):
        table, _ = make_table(TableStorage, self.SHAPE, 21, 40, DEVICES)
        pulled, stored_after = [], []
        store = table.storage.write_column_rows

        def generate():
            for block in self.blocks(21, 8):
                pulled.append(len(block["k"]))
                yield block

        def spy(region, start, columns, n):
            stored_after.append((start, n, sum(pulled)))
            store(region, start, columns, n)

        table.storage.write_column_rows = spy
        assert table.load_columns(generate()) == 21
        assert stored_after == [(0, 8, 8), (8, 8, 16), (16, 5, 21)]
        assert table.read_row(20, 0) == stored(self.SHAPE[0], self.rows(21)[20])

    def test_more_rows_than_sized_for_fails_before_the_offending_block(self):
        table = self.table(5)
        table.load_columns(self.blocks(4, 4))
        before = table.storage.rank.mem.copy()
        with pytest.raises(MemoryError_, match=r"table 't' data region: row 5 .*\[0, 5\)"):
            table.load_columns(self.blocks(6, 8))
        assert np.array_equal(table.storage.rank.mem, before)
        assert len(table.index) == 4

    def test_duplicate_index_key_raises(self):
        table = self.table(2)
        block = to_columns(self.SHAPE[0], [self.rows(1)[0]] * 2)
        with pytest.raises(TransactionError, match="duplicate key 100"):
            table.load_columns([block])
        assert len(table.index) == 0


# ---------------------------------------------------------------------------
# The column-run store and its checks, against the row-dict ones
# ---------------------------------------------------------------------------
def over_0xff(cls, shape, capacity):
    """A storage whose every byte is 0xFF: a padding byte the store leaves
    alone shows against ``pack_row``'s zero."""
    storage = make_storage(cls, shape, capacity, capacity)
    storage.rank.mem[:] = 0xFF
    return storage


class TestColumnEntry:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_stored_columns_equal_pack_row_over_0xff(self, data):
        """Byte for byte, padding re-zeroed: int widths 1–8 (3/5/6/7
        included), bytes values shorter than their column and exactly as
        wide, no rows at all."""
        shape = data.draw(table_shapes(block_rows_choices=(8, 256)))
        schema, _, block_rows, _ = shape
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        rows = [random_row(schema, rng) for _ in range(data.draw(st.integers(0, 12)))]
        columns = to_columns(schema, rows, short=data.draw(st.booleans()))
        start = data.draw(st.integers(0, block_rows))
        by_runs = over_0xff(TableStorage, shape, 2 * block_rows + 12)
        by_rows = over_0xff(OracleStorage, shape, 2 * block_rows + 12)
        by_runs.write_column_rows(Region.DATA, start, columns, len(rows))
        by_rows.write_rows(Region.DATA, start, rows)
        assert np.array_equal(by_runs.rank.mem, by_rows.rank.mem)

    SCHEMA = TableSchema.of(
        "t", [Column("a", 3), Column("b", 8), Column("s", 5, "bytes")]
    )

    @pytest.mark.parametrize(
        "column, bad",
        [
            ("a", 2**24),
            ("a", -1),
            ("b", -(2**63)),
            ("a", 1.5),
            ("s", b"sixsix"),
            ("s", 7),
            ("a", b"x"),
            ("b", None),
        ],
        ids=[
            "value 2**(8*width)",
            "negative",
            "negative in 8 bytes",
            "float for int",
            "bytes too long",
            "int for bytes",
            "bytes for int",
            "missing column",
        ],
    )
    def test_write_column_rows_rejects_in_column_encodes_words(self, column, bad):
        """... and stores nothing, though the columns before the bad one
        are good."""
        storage = over_0xff(TableStorage, (self.SCHEMA, ["a"], 8, True), 8)
        layout = storage.layout
        rows = [{"a": i, "b": 2**64 - 1 - i, "s": b"abc"} for i in range(4)]
        columns = to_columns(self.SCHEMA, rows)
        if bad is None:
            del rows[2][column], columns[column]
        else:
            rows[2][column] = bad
            if isinstance(bad, bytes):
                columns[column] = np.zeros((4, len(bad)), dtype=np.uint8)
            else:
                columns[column] = np.array([bad if i == 2 else 1 for i in range(4)])
        with pytest.raises(SchemaError) as by_rows:
            encode_rows(layout, rows[2:])
        with pytest.raises(SchemaError) as by_columns:
            storage.write_column_rows(Region.DATA, 0, columns, 4)
        assert (storage.rank.mem == 0xFF).all()
        want = str(by_rows.value)
        if isinstance(bad, float):
            # One dtype for the whole array: NumPy's name for the type.
            want = want.replace("got float", "got float64")
        elif column == "s" and bad == 7:
            want = want.replace("got int", "got int64")
        elif column == "a" and bad == b"x":
            want = want.replace("got bytes", "got uint8")
        assert str(by_columns.value) == want

    def test_a_column_of_the_wrong_length_is_refused(self):
        storage = make_storage(TableStorage, (self.SCHEMA, ["a"], 8, True), 8, 8)
        columns = to_columns(self.SCHEMA, [{"a": 1, "b": 2, "s": b""}] * 3)
        with pytest.raises(SchemaError, match="'a' has 3 values for 4 rows"):
            storage.write_column_rows(Region.DATA, 0, columns, 4)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_write_column_rows_image_equals_write_rows(self, data):
        shape = data.draw(table_shapes(block_rows_choices=(8, 256)))
        schema, _, block_rows, _ = shape
        capacity = 3 * block_rows + data.draw(st.integers(1, block_rows - 1))
        region = data.draw(st.sampled_from([Region.DATA, Region.DELTA]))
        start = data.draw(st.integers(0, capacity - 1))
        count = data.draw(st.integers(0, min(capacity - start, block_rows + 19)))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        rows = [random_row(schema, rng) for _ in range(count)]
        by_columns = make_storage(TableStorage, shape, capacity, capacity)
        by_rows = make_storage(OracleStorage, shape, capacity, capacity)
        by_columns.write_column_rows(region, start, to_columns(schema, rows), count)
        by_rows.write_rows(region, start, rows)
        assert np.array_equal(by_columns.rank.mem, by_rows.rank.mem)

    @pytest.mark.parametrize("start, count, first_bad", [(-1, 2, -1), (38, 5, 40), (41, 1, 41)])
    def test_range_error_comes_before_any_byte_on_both_entries(self, start, count, first_bad):
        shape = (self.SCHEMA, ["a"], 8, True)
        storage = make_storage(TableStorage, shape, 40, 16)
        before = storage.rank.mem.copy()
        rows = [{"a": i, "b": i, "s": b"abc"} for i in range(count)]
        message = (
            rf"table 't' data region: row {first_bad} out of range \[0, 40\) "
            rf"writing {count} rows from {start}$"
        )
        with pytest.raises(MemoryError_, match=message):
            storage.write_column_rows(Region.DATA, start, to_columns(self.SCHEMA, rows), count)
        # An encode error also leaves the image alone: all-or-nothing.
        with pytest.raises(SchemaError):
            storage.write_column_rows(
                Region.DATA, 0, to_columns(self.SCHEMA, rows[:1]) | {"a": np.array([2**24])}, 1
            )
        assert np.array_equal(storage.rank.mem, before)


# ---------------------------------------------------------------------------
# (c) Device.data is a view of Rank.mem
# ---------------------------------------------------------------------------
class TestRankMatrixViews:
    RANK_BYTES = 1 << 12

    def readers(self, rank, device, local):
        dev = rank.devices[device]
        bank = dev.banks[local // dev.bank_size]
        return {
            "interleaved": lambda: int(
                rank.read_interleaved(
                    local_to_interleaved(device, local, rank.granularity, rank.num_devices), 1
                )[0]
            ),
            "device_read": lambda: int(rank.device_read(device, local, 1)[0]),
            "bank": lambda: int(bank.read(local - bank.start, 1)[0]),
            "ade_slice": lambda: int(rank.mem[:, local : local + 1][device, 0]),
            "flat": lambda: rank.flat[device * self.RANK_BYTES + local],
        }

    def writers(self, rank, device, local):
        one = lambda value: np.array([value], dtype=np.uint8)  # noqa: E731

        def ade(value):
            column = rank.mem[:, local : local + 1].copy()
            column[device, 0] = value
            rank.mem[:, local : local + 1] = column

        def flat(value):
            rank.flat[device * self.RANK_BYTES + local] = value

        return {
            "interleaved": lambda v: rank.write_interleaved(
                local_to_interleaved(device, local, rank.granularity, rank.num_devices), one(v)
            ),
            "device_write": lambda v: rank.device_write(device, local, one(v)),
            "ade_slice": ade,
            "flat": flat,
        }

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, DEVICES - 1),
        st.integers(0, RANK_BYTES - 1),
        st.lists(st.integers(0, 255), min_size=4, max_size=4, unique=True),
    )
    def test_a_byte_written_through_one_view_reads_back_through_all(
        self, device, local, values
    ):
        rank = Rank(DeviceGeometry(), self.RANK_BYTES)
        writers = self.writers(rank, device, local)
        for value, (via, write) in zip(values, writers.items()):
            write(value)
            seen = {name: read() for name, read in self.readers(rank, device, local).items()}
            assert set(seen.values()) == {value}, (via, seen)
        # ... and nothing else in the rank moved.
        assert int(np.count_nonzero(rank.mem)) == (1 if values[-1] else 0)

    def test_device_data_shares_memory_with_the_matrix(self):
        rank = Rank(DeviceGeometry(), self.RANK_BYTES)
        assert rank.mem.shape == (DEVICES, self.RANK_BYTES)
        assert rank.size == DEVICES * self.RANK_BYTES
        for i, device in enumerate(rank.devices):
            assert np.shares_memory(device.data, rank.mem[i])
            assert not np.shares_memory(device.data, rank.mem[(i + 1) % DEVICES])
        addr = 3 * rank.granularity * DEVICES + 5 * rank.granularity + 2
        assert interleaved_to_local(addr, rank.granularity, DEVICES) == (5, 3 * 8 + 2)

    def test_a_device_rejects_a_backing_array_of_the_wrong_shape(self):
        from repro.pim.device import Device

        with pytest.raises(MemoryError_, match="backing array"):
            Device(0, 64, num_banks=8, data=np.zeros(32, dtype=np.uint8))
        with pytest.raises(MemoryError_, match="backing array"):
            Device(0, 64, num_banks=8, data=np.zeros(64, dtype=np.int8))


# ---------------------------------------------------------------------------
# (d) the pinned engine image
# ---------------------------------------------------------------------------
def test_engine_image_after_build_txns_and_defrag_is_pinned():
    """Pinned on the commit before the rank became one matrix (per-slot
    device writes)."""
    assert PINS["device_image"]() == committed("pins")["device_image"]
