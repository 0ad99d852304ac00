"""Composite index keys packed into one int.

A table whose index key is several columns stores ``a << 8·width_b | b``
(first column highest) and packs a probed tuple the same way. The
reference is a plain dict over the logical tuples: every lookup, insert,
delete and rollback must agree with it, and a tuple that names no row —
a component out of its column's range, negative, not an integer, or a
tuple of another arity — must miss rather than alias a row it does not
name.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.engine import PushTapEngine
from repro.core.storage import TableStorage
from repro.errors import ConfigError, TransactionError
from repro.format.schema import Column, TableSchema
from tests.test_device_image import DEVICES, make_table

#: Two 2-byte key columns and a payload.
PAIR = TableSchema.of("t", [Column("a", 2), Column("b", 2), Column("v", 4)])
#: CUSTOMER's key shape: 2 + 2 + 4 bytes, 64 bits in all.
TRIPLE = TableSchema.of("t", [Column("w", 2), Column("d", 2), Column("c", 4), Column("v", 1)])


def keyed_table(schema, key_columns, rows, capacity=64):
    """A table indexed on ``key_columns``, loaded with ``rows`` as one block."""
    shape = (schema, [key_columns[0]], 8, True)
    table, _ = make_table(TableStorage, shape, len(rows), capacity, DEVICES, key_columns)
    if rows:
        table.load_columns([{c.name: np.array([r[c.name] for r in rows]) for c in schema}])
    return table


class TestProbe:
    ROWS = [
        {"a": 1, "b": 4464, "v": 0},
        {"a": 65535, "b": 65535, "v": 1},
        {"a": 0, "b": 0, "v": 2},
    ]

    def table(self):
        return keyed_table(PAIR, ("a", "b"), self.ROWS)

    def test_a_component_past_its_width_does_not_alias(self):
        """``(0, 70000)`` packs to the int ``(1, 4464)`` does; it misses."""
        index = self.table().index
        assert 0 << 16 | 70000 == 1 << 16 | 4464
        assert index.probe((1, 4464)) == 0
        assert index.probe((0, 70000)) is None
        assert index.probe((65536, 0)) is None

    @pytest.mark.parametrize(
        "key",
        [(-1, 4464), (1, -1), (-1, -1), (1,), (1, 4464, 0), (), (1.0, 4464), ("1", 4464)],
        ids=["negative a", "negative b", "both negative", "short", "long", "empty",
             "float", "str"],
    )
    def test_tuples_that_name_no_row_miss(self, key):
        assert self.table().index.probe(key) is None

    def test_numpy_components_pack_as_python_ints(self):
        index = self.table().index
        assert index.probe((np.int64(1), np.int64(4464))) == 0
        assert index.probe((np.uint16(65535), np.int64(65535))) == 1
        assert index.probe((np.int64(0), np.int64(70000))) is None

    def test_a_64_bit_key_packs_without_int64_wrap(self):
        """``65535 << 48`` is past ``int64``: NumPy components, the block
        keys and the stored key all give the Python int."""
        rows = [{"w": 65535, "d": 10, "c": 2**32 - 1, "v": 0}, {"w": 1, "d": 2, "c": 3, "v": 1}]
        table = keyed_table(TRIPLE, ("w", "d", "c"), rows)
        want = 65535 << 48 | 10 << 32 | 2**32 - 1
        assert want >= 2**63
        assert table.stored_key(0) == want and table.stored_key(1) == 1 << 48 | 2 << 32 | 3
        assert table.index.probe((np.int64(65535), np.int64(10), np.int64(2**32 - 1))) == 0
        assert table.index.probe(want) == 0
        assert table.index.probe((65535, 10, 2**32)) is None

    def test_four_key_columns_pack_through_the_general_packer(self):
        schema = TableSchema.of("t", [Column(name, 2) for name in "wxyz"])
        rows = [{"w": 1, "x": 2, "y": 3, "z": 4}, {"w": 65535, "x": 0, "y": 0, "z": 1}]
        table = keyed_table(schema, tuple("wxyz"), rows)
        assert table.stored_key(0) == 1 << 48 | 2 << 32 | 3 << 16 | 4
        assert table.index.probe((1, 2, 3, 4)) == 0
        assert table.index.probe((np.int64(65535), 0, 0, np.int64(1))) == 1
        for key in ((1, 2, 3), (1, 2, 3, 4, 0), (1, 2, 3, 65540), (1, -1, 3, 4), (1.0, 2, 3, 4)):
            assert table.index.probe(key) is None, key

    def test_a_missing_tuple_names_itself_in_the_lookup_error(self):
        engine = PushTapEngine.build(scale=2e-5, block_rows=256, tables=["district"])

        def lookup(ctx):
            ctx.index_lookup("district_pk", (0, 70000))

        with pytest.raises(TransactionError, match=r"key \(0, 70000\) not found"):
            engine.oltp.execute(lookup)


def test_key_columns_past_64_bits_are_refused_before_loading():
    """Three 4-byte columns are 96 bits. The out-of-range value would
    fail the load; the index is refused first."""
    schema = TableSchema.of("t", [Column("a", 4), Column("b", 4), Column("c", 4)])
    with pytest.raises(
        ConfigError, match=r"index 't_pk' on table 't': key columns \['a', 'b', 'c'\] are 96 bits"
    ):
        PushTapEngine.build_custom(
            {"t": schema}, {"t": ["a"]}, {"t": [{"a": 2**40, "b": 0, "c": 0}]},
            block_rows=8, index_keys={"t": ("t_pk", ("a", "b", "c"))},
        )


KEYS = st.tuples(st.sampled_from([0, 1, 2, 65535]), st.sampled_from([0, 1, 4464, 65535]))
PROBES = st.one_of(
    KEYS,
    st.tuples(st.integers(-2, 70_000), st.integers(-2, 70_000)),
    KEYS.map(lambda key: tuple(np.int64(v) for v in key)),
)


class PackedKeyMachine(RuleBasedStateMachine):
    """A (a, b)-keyed table against a dict of logical tuple keys: each
    rule is one transaction at a fresh ts, committed or rolled back."""

    def __init__(self):
        super().__init__()
        self.table = keyed_table(PAIR, ("a", "b"), [], capacity=128)
        self.model = {}
        self.ts = 0

    def next_ts(self):
        self.ts += 1
        return self.ts

    @rule(key=KEYS, abort=st.booleans())
    def insert(self, key, abort):
        ts = self.next_ts()
        try:
            row_id = self.table.insert_row(ts, {"a": key[0], "b": key[1], "v": ts})
        except TransactionError:
            assert key in self.model
            self.table.rollback(ts)
            return
        assert key not in self.model
        if abort:
            self.table.rollback(ts)
        else:
            self.model[key] = row_id

    @rule(data=st.data(), abort=st.booleans())
    def delete(self, data, abort):
        if not self.model:
            return
        key = data.draw(st.sampled_from(sorted(self.model)))
        ts = self.next_ts()
        self.table.delete_row(self.model[key], ts)
        if abort:
            self.table.rollback(ts)
        else:
            del self.model[key]

    @rule(key=PROBES)
    def lookup(self, key):
        logical = tuple(int(v) for v in key)
        assert self.table.index.probe(key) == self.model.get(logical)

    @invariant()
    def index_equals_model(self):
        index = self.table.index
        assert len(index) == len(self.model)
        assert {key: index.probe(key) for key in self.model} == self.model


TestPackedKeyMachine = PackedKeyMachine.TestCase
TestPackedKeyMachine.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)
