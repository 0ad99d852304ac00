"""Unit conventions and arithmetic helpers."""

import pytest
from hypothesis import given, strategies as st

from repro import units


def test_time_constants_are_nanosecond_based():
    assert units.NS == 1.0
    assert units.US == 1e3
    assert units.MS == 1e6
    assert units.S == 1e9


def test_size_constants():
    assert units.KIB == 1024
    assert units.MIB == 1024 ** 2
    assert units.GIB == 1024 ** 3


def test_gb_per_s_is_identity():
    assert units.gb_per_s(25.6) == 25.6


def test_ceil_div_basic():
    assert units.ceil_div(0, 8) == 0
    assert units.ceil_div(1, 8) == 1
    assert units.ceil_div(8, 8) == 1
    assert units.ceil_div(9, 8) == 2


def test_ceil_div_rejects_bad_input():
    with pytest.raises(ValueError):
        units.ceil_div(1, 0)
    with pytest.raises(ValueError):
        units.ceil_div(-1, 8)


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**6))
def test_ceil_div_matches_definition(a, b):
    q = units.ceil_div(a, b)
    assert (q - 1) * b < a <= q * b or (a == 0 and q == 0)


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**6))
def test_round_up_properties(value, multiple):
    rounded = units.round_up(value, multiple)
    assert rounded >= value
    assert rounded % multiple == 0
    assert rounded - value < multiple
