"""Row-shape plans: the one-row OLTP path resolves each shape once.

A row shape is the tuple of column names one one-row call gives:
``read_row``'s ``columns``, ``write_columns``' and ``update_row``'s dict
keys. Each shape's work is done on its first call and kept; a shape that
raises is never kept, so every error repeats with its type, its message
and its "before any byte or MVCC change" ordering.
"""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import PushTapEngine
from repro.core.storage import TableStorage
from repro.errors import SchemaError, TransactionError
from repro.format.schema import Column, TableSchema
from repro.mvcc.manager import MVCCManager
from tests.test_device_image import (
    OracleStorage,
    make_storage,
    make_table,
    random_row,
    table_shapes,
)
from tests.test_scale_ladder import TXN_MIX

SHAPE = (
    TableSchema.of("orders", [Column("a", 4), Column("b", 2), Column("z", 9, "bytes")]),
    ["a", "b"],
    8,
    True,
)
ROW = {"a": 7, "b": 3, "z": b"zz"}


def storage_with_a_row():
    storage = make_storage(TableStorage, SHAPE, 32, 16)
    storage.write_row(3, -1, ROW)
    return storage


def table_with_a_row():
    """A ``TableRuntime`` indexed on ``a``, holding ``ROW`` as row 0."""
    table, _ = make_table(TableStorage, SHAPE, 0, 32, 2, key_columns=["a"])
    table.insert_row(1, ROW)
    return table


class TestAFailingShapeFailsAgain:
    @pytest.mark.parametrize("columns", [["a", "nope"], ["nope"]])
    def test_read_row_unknown_column(self, columns):
        storage = storage_with_a_row()
        before = storage.rank.mem.copy()
        for _ in range(2):
            with pytest.raises(SchemaError, match="^table 'orders' has no column 'nope'$"):
                storage.read_row(3, -1, columns)
        assert np.array_equal(storage.rank.mem, before)
        assert storage.read_row(3, -1, ["a"]) == {"a": 7}

    @pytest.mark.parametrize("src", [-1, 5], ids=["in place", "with a copy"])
    def test_write_columns_unknown_column(self, src):
        storage = storage_with_a_row()
        before = storage.rank.mem.copy()
        for _ in range(2):
            with pytest.raises(SchemaError, match="^table 'orders' has no column 'nope'$"):
                storage.write_columns(3, src, -1, {"b": 1, "nope": 2})
        assert np.array_equal(storage.rank.mem, before)

    @pytest.mark.parametrize(
        "changes, text",
        [
            ({"b": 1, "nope": 2}, r"^table 't' has no columns \['nope'\]"),
            ({"b": 1, "a": 2}, r"^table 't': cannot update index key column\(s\) \['a'\]"),
        ],
        ids=["unknown column", "index key column"],
    )
    def test_update_row(self, changes, text):
        table = table_with_a_row()
        table.update_row(0, 2, {"b": 4})
        before = table.storage.rank.mem.copy()
        journal = [column.copy() for column in table.mvcc.journal]
        for ts in (3, 3, 4):
            with pytest.raises(TransactionError, match=text):
                table.update_row(0, ts, changes)
        assert np.array_equal(table.storage.rank.mem, before)
        assert all(map(np.array_equal, table.mvcc.journal, journal))
        assert table.mvcc.chain_length(0) == 2

    def test_a_passing_shape_does_not_vouch_for_another(self):
        """The check is keyed on the shape as given: a good shape passing
        first does not let its names plus a key column through."""
        table = table_with_a_row()
        table.update_row(0, 2, {"b": 4})
        with pytest.raises(TransactionError, match="index key"):
            table.update_row(0, 3, {"a": 9, "b": 4})


class TestACachedShapeStillChecksItsValues:
    @pytest.mark.parametrize("src", [-1, 5], ids=["in place", "with a copy"])
    def test_out_of_range_value_moves_no_byte(self, src):
        storage = storage_with_a_row()
        storage.write_columns(3, src, -1, {"b": 1, "z": b"q"})
        before = storage.rank.mem.copy()
        for value in (1 << 16, -1):
            with pytest.raises(SchemaError, match="out of range for column 'b'"):
                storage.write_columns(3, src, -1, {"b": value, "z": b"r"})
            assert np.array_equal(storage.rank.mem, before)
        with pytest.raises(SchemaError, match="too long for column 'z'"):
            storage.write_columns(3, src, -1, {"b": 2, "z": b"r" * 10})
        assert np.array_equal(storage.rank.mem, before)

    @pytest.mark.parametrize("width", range(1, 9))
    @pytest.mark.parametrize(
        "value",
        [True, "max", "max + 1", -1, np.int64(3), 1.0, b"\x01"],
        ids=["True", "max_int", "max_int + 1", "-1", "np.int64", "float", "bytes"],
    )
    def test_one_row_writes_encode_as_column_encode(self, width, value):
        """``write_row`` and ``write_columns`` (in place and with a copy)
        store what ``Column.encode`` yields for an int column of any width
        — including the 3, 5 and 6 no ``struct`` code covers — or raise its
        exact error and store nothing."""
        column = Column("v", width)
        value = {"max": column.max_int, "max + 1": column.max_int + 1}.get(value, value)
        shape = (
            TableSchema.of("orders", [Column("a", 4), column, Column("z", 9, "bytes")]),
            ["a"], 8, True,
        )
        self.same_as_column_encode(shape, "v", value)

    @pytest.mark.parametrize("value", [bytearray(b"ab"), b"", 7, "ab"])
    def test_a_bytes_column_encodes_as_column_encode(self, value):
        self.same_as_column_encode(SHAPE, "z", value)

    @staticmethod
    def same_as_column_encode(shape, name, value):
        """Each one-row write of ``value`` to column ``name`` leaves the image
        the per-slot oracle (``Column.encode`` per value) leaves, or raises
        ``Column.encode``'s error and stores nothing."""
        column = shape[0].column(name)
        try:
            raw, error = column.encode(value), None
        except SchemaError as err:
            raw, error = None, str(err)
        good = {c.name: c.decode(bytes(c.width)) for c in shape[0]}
        storages = [make_storage(cls, shape, 32, 16) for cls in (TableStorage, OracleStorage)]
        for storage in storages:
            storage.write_row(3, -1, good)
        writes = [
            ((4, -1), lambda s: s.write_row(4, -1, dict(good, **{name: value}))),
            ((3, -1), lambda s: s.write_columns(3, -1, -1, {name: value})),
            ((3, 5), lambda s: s.write_columns(3, -1, 5, {name: value})),
        ]
        for (row, delta), write in writes:
            before = storages[0].rank.mem.copy()
            if error is not None:
                with pytest.raises(SchemaError) as err:
                    write(storages[0])
                assert str(err.value) == error
                assert np.array_equal(storages[0].rank.mem, before)
                continue
            for storage in storages:
                write(storage)
            assert np.array_equal(storages[0].rank.mem, storages[1].rank.mem)
            assert storages[0].read_row(row, delta, [name]) == {name: column.decode(raw)}

    def test_write_row_names_missing_columns_before_a_bad_value(self):
        """As ``TableSchema.encode_row``: a missing column is named even when
        an earlier column's value is bad, and nothing is stored."""
        storage = storage_with_a_row()
        before = storage.rank.mem.copy()
        for row in ({"a": -1, "b": 1}, {"a": 1.0, "b": 1}, {"a": 1, "b": 1 << 16}):
            with pytest.raises(SchemaError, match=r"missing columns \['z'\]$"):
                storage.write_row(4, -1, row)
        assert np.array_equal(storage.rank.mem, before)

    def test_encode_errors_follow_schema_order(self):
        """Either key order names the schema's first bad column, as
        ``write_row`` would, on the shape's first call and on later ones."""
        storage = storage_with_a_row()
        for values in [{"z": b"r" * 10, "b": 1 << 16}, {"b": 1 << 16, "z": b"r" * 10}] * 2:
            with pytest.raises(SchemaError, match="out of range for column 'b'"):
                storage.write_columns(3, -1, -1, values)

    def test_a_read_shape_reads_each_rows_bytes(self):
        storage = storage_with_a_row()
        storage.write_row(4, -1, {"a": 8, "b": 5, "z": b"y"})
        assert storage.read_row(3, -1, ("z", "a")) == {"z": b"zz" + bytes(7), "a": 7}
        assert storage.read_row(4, -1, ["z", "a"]) == {"z": b"y" + bytes(8), "a": 8}


@settings(max_examples=30, deadline=None)
@given(table_shapes(), st.randoms(use_true_random=False))
def test_key_order_does_not_change_the_version(shape, rng):
    """The same changes as dicts in two key orders install byte-identical
    versions: both shapes encode in schema order."""
    schema = shape[0]
    names = [c.name for c in schema]
    changed = rng.sample(names, rng.randint(1, len(names)))
    images = []
    for order in (changed, changed[::-1]):
        storage = make_storage(TableStorage, shape, 16, 16)
        source = random.Random(1)
        storage.write_row(2, -1, random_row(schema, source))
        values = random_row(schema, source)
        storage.write_columns(2, -1, 2, {name: values[name] for name in order})
        images.append(storage.rank.mem.copy())
    assert np.array_equal(*images)


def test_mvcc_read_and_update_return_python_ints():
    mv = MVCCManager(initial_rows=8, capacity_rows=64, block_rows=8, num_devices=8,
                     delta_capacity_blocks=4)
    results = [mv.read(1, 5), mv.update(1, 3), mv.update(1, 4), mv.update(1, 4)]
    results += [mv.read(1, 3), mv.read(1, 10), mv.read(1, 2), mv.read(np.int64(2), 5)]
    assert all(type(value) is int for result in results for value in result)


def test_each_row_shape_is_resolved_once(monkeypatch):
    """Over 300 benchmark-mix transactions every per-shape plan builder
    runs once per distinct (table, shape), not once per row: the column
    plans, read_row's and write_columns' shape plans, and update_row's
    shape check (its ``has_column`` calls)."""
    engine = PushTapEngine.build(scale=1e-4, seed=7)
    builds = Counter()
    rows = Counter()

    def counted(name):
        original = getattr(TableStorage, name)

        def wrapper(storage, key, *args):
            builds[name, storage.layout.schema.name, key] += 1
            return original(storage, key, *args)

        monkeypatch.setattr(TableStorage, name, wrapper)

    for name in ("_read_plan", "_row_plan", "_write_plan"):
        counted(name)
    read_row, has_column = TableStorage.read_row, TableSchema.has_column

    def counted_read(storage, *args):
        rows["read_row"] += 1
        return read_row(storage, *args)

    def counted_check(schema, name):
        rows["has_column"] += 1
        return has_column(schema, name)

    monkeypatch.setattr(TableStorage, "read_row", counted_read)
    monkeypatch.setattr(TableSchema, "has_column", counted_check)
    results = engine.run_transactions(300, engine.make_driver(seed=8, **TXN_MIX))
    assert sum(not result.aborted for result in results) > 250
    assert builds and set(builds.values()) == {1}
    write_shapes = [key for name, _, key in builds if name == "_write_plan"]
    assert rows["has_column"] == sum(map(len, write_shapes))
    assert 20 * len(builds) < rows["read_row"]
