"""Column/table schemas and fixed-width value encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchemaError
from repro.format.schema import Column, TableSchema


class TestColumn:
    def test_int_encode_decode(self):
        col = Column("x", 3)
        assert col.encode(0x010203) == bytes([3, 2, 1])
        assert col.decode(bytes([3, 2, 1])) == 0x010203

    def test_bytes_encode_pads(self):
        col = Column("s", 5, kind="bytes")
        assert col.encode(b"ab") == b"ab\x00\x00\x00"
        assert col.decode(b"ab\x00\x00\x00") == b"ab\x00\x00\x00"

    def test_max_int(self):
        assert Column("x", 2).max_int == 65535

    @pytest.mark.parametrize("width", range(1, 9))
    def test_the_stored_bound_is_the_encode_bound(self, width):
        col = Column("x", width)
        assert col.max_int == (1 << (8 * width)) - 1
        assert col.encode(col.max_int) == b"\xff" * width
        with pytest.raises(SchemaError) as err:
            col.encode(col.max_int + 1)
        assert str(err.value) == (
            f"value {col.max_int + 1} out of range for column 'x' (width {width})"
        )

    def test_max_int_of_a_bytes_column_raises(self):
        with pytest.raises(SchemaError, match="^column 's' is not an int column$"):
            Column("s", 4, kind="bytes").max_int

    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_int_roundtrip_property(self, width, data):
        col = Column("x", width)
        value = data.draw(st.integers(min_value=0, max_value=col.max_int))
        assert col.decode(col.encode(value)) == value

    @given(st.integers(min_value=1, max_value=32), st.binary(max_size=32))
    def test_bytes_roundtrip_property(self, width, raw):
        col = Column("s", width, kind="bytes")
        if len(raw) > width:
            with pytest.raises(SchemaError):
                col.encode(raw)
        else:
            encoded = col.encode(raw)
            assert len(encoded) == width
            assert col.decode(encoded).rstrip(b"\x00") == raw.rstrip(b"\x00")

    def test_validation(self):
        with pytest.raises(SchemaError):
            Column("", 2)
        with pytest.raises(SchemaError):
            Column("x", 0)
        with pytest.raises(SchemaError):
            Column("x", 2, kind="float")
        with pytest.raises(SchemaError):
            Column("x", 9)  # int wider than 8 bytes

    def test_value_range_errors(self):
        col = Column("x", 1)
        with pytest.raises(SchemaError):
            col.encode(256)
        with pytest.raises(SchemaError):
            col.encode(-1)
        with pytest.raises(SchemaError):
            col.encode(b"oops")

    def test_decode_wrong_length(self):
        with pytest.raises(SchemaError):
            Column("x", 2).decode(b"abc")


class TestTableSchema:
    def make(self):
        return TableSchema.of("t", [Column("a", 2), Column("b", 4), Column("z", 10, kind="bytes")])

    def test_basic_properties(self):
        s = self.make()
        assert s.column_names == ["a", "b", "z"]
        assert s.row_bytes == 16
        assert len(s) == 3
        assert [c.name for c in s] == ["a", "b", "z"]

    def test_lookup(self):
        s = self.make()
        assert s.column("b").width == 4
        assert s.has_column("z")
        assert not s.has_column("q")
        with pytest.raises(SchemaError):
            s.column("q")

    def test_row_roundtrip(self):
        s = self.make()
        row = {"a": 7, "b": 123456, "z": b"hello"}
        encoded = s.encode_row(row)
        decoded = {c.name: c.decode(encoded[c.name]) for c in s.columns}
        assert decoded["a"] == 7
        assert decoded["b"] == 123456
        assert decoded["z"].rstrip(b"\x00") == b"hello"

    def test_missing_column_rejected(self):
        with pytest.raises(SchemaError):
            self.make().encode_row({"a": 1, "b": 2})

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema.of("t", [Column("a", 2), Column("a", 4)])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema.of("t", [])
        with pytest.raises(SchemaError):
            TableSchema.of("", [Column("a", 2)])
