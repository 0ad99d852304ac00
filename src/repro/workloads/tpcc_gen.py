"""Deterministic TPC-C / CH-benCHmark data generation, a block of rows at a time.

Generates tables with consistent foreign keys at any scale. Values follow
TPC-C's ranges where they matter to the queries (item ids, delivery dates,
quantities, amounts); text columns get cheap deterministic filler. All
randomness is seeded, so tests and benchmarks are reproducible.

A table is *data* (:data:`_GENERATORS`): per column either a function of
the row number, a constant, or a draw — ``("int", lo, hi)`` for an integer
in ``[lo, hi)``, ``("fill", width)`` for ``width`` letters ``A``–``Z``.
:func:`generate_table` yields blocks of rows as column arrays.

**The stream contract.** Each drawn column has a stream of its own: the
table's ``SeedSequence(_table_seed(table, seed))`` spawns one ``PCG64``
per drawn column, in rule order. Every row takes a fixed number of raw
64-bit words from its column's stream:

* ``("int", lo, hi)``: one word ``w``, the value ``lo + ((w >> 32) *
  (hi - lo) >> 32)`` (Lemire's multiply-shift over the high half, with
  no rejection step);
* ``("fill", width)``: ``ceil(width / 2)`` words, two letters a word,
  low 32-bit half first, each half ``h`` the letter ``65 + (h * 26 >> 32)``.

So a row's values depend on its row number only, never on how the rows
are blocked. The values are taken from the BitGenerator's raw output
(``random_raw``) because NumPy keeps that stream stable across versions
and does not promise it for ``Generator`` methods. ``Generator.integers``
with ``dtype=np.uint8`` is not used either: it buffers bytes within a
call, so its values would change with the block split.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterator

import numpy as np

from repro.errors import SchemaError

__all__ = [
    "DATE_EPOCH",
    "DATE_HORIZON",
    "generate_table",
]

#: Synthetic date range (days) used for *_d / *_date columns.
DATE_EPOCH = 1_000
DATE_HORIZON = 3_000

_DATE = ("int", DATE_EPOCH, DATE_HORIZON)


def _table_seed(table: str, seed: int) -> int:
    """Per-table RNG seed derived from a *stable* hash of the name.

    Using the name's content (CRC-32, stable across processes — unlike
    ``hash()``) rather than its length keeps same-length tables such as
    ``stock``/``order`` on distinct, uncorrelated RNG streams while
    preserving determinism for a fixed ``seed``.
    """
    return (seed * 0x9E3779B1 + zlib.crc32(table.encode("utf-8"))) % (1 << 32)


def _row_number(i):
    return i + 1


def _cycle(n: int):
    """``i % n + 1``: the foreign key the row number assigns."""
    return lambda i: i % n + 1


_DISTRICT = _cycle(10)


def _address(prefix: str):
    """The name/address/state/zip/tax run WAREHOUSE and DISTRICT share."""
    return (
        (f"{prefix}_name", ("fill", 10)),
        (f"{prefix}_street_1", ("fill", 20)),
        (f"{prefix}_street_2", ("fill", 20)),
        (f"{prefix}_city", ("fill", 20)),
        (f"{prefix}_state", ("int", 0, 50)),
        (f"{prefix}_zip", ("fill", 9)),
        (f"{prefix}_tax", ("int", 0, 2000)),
    )

#: Table → (counts → ((column, rule), ...)). A rule is a function of the
#: row-number array, a draw tuple, or a constant. The order of the draws
#: picks each one's stream and may not change (see the module docstring).
_GENERATORS = {
    "warehouse": lambda c: (("w_id", _row_number), *_address("w"), ("w_ytd", 300_000)),
    "district": lambda c: (
        ("d_id", _DISTRICT),
        ("d_w_id", lambda i: i // 10 % c["warehouse"] + 1),
        *_address("d"),
        ("d_ytd", 30_000),
        ("d_next_o_id", 3001),
    ),
    "customer": lambda c: (
        ("c_id", _row_number),
        ("c_d_id", _DISTRICT),
        ("c_w_id", _cycle(c["warehouse"])),
        ("c_first", ("fill", 16)),
        ("c_middle", b"OE"),
        ("c_last", ("fill", 16)),
        ("c_street_1", ("fill", 20)),
        ("c_street_2", ("fill", 20)),
        ("c_city", ("fill", 20)),
        ("c_state", ("int", 0, 50)),
        ("c_zip", ("fill", 9)),
        ("c_phone", ("fill", 16)),
        ("c_since", _DATE),
        ("c_credit", ("int", 0, 2)),
        ("c_credit_lim", 50_000),
        ("c_discount", ("int", 0, 5000)),
        ("c_balance", 10),
        ("c_ytd_payment", 10),
        ("c_payment_cnt", 1),
        ("c_delivery_cnt", 0),
        ("c_data", ("fill", 152)),
    ),
    "history": lambda c: (
        ("h_c_id", _cycle(c["customer"])),
        ("h_c_d_id", _DISTRICT),
        ("h_c_w_id", _cycle(c["warehouse"])),
        ("h_d_id", _DISTRICT),
        ("h_w_id", _cycle(c["warehouse"])),
        ("h_date", _DATE),
        ("h_amount", 1000),
        ("h_data", ("fill", 24)),
    ),
    "neworder": lambda c: (
        ("no_o_id", _row_number),
        ("no_d_id", _DISTRICT),
        ("no_w_id", _cycle(c["warehouse"])),
    ),
    "order": lambda c: (
        ("o_id", _row_number),
        ("o_d_id", _DISTRICT),
        ("o_w_id", _cycle(c["warehouse"])),
        ("o_c_id", ("int", 1, c["customer"] + 1)),
        ("o_entry_d", _DATE),
        ("o_carrier_id", ("int", 0, 11)),
        ("o_ol_cnt", ("int", 5, 16)),
        ("o_all_local", 1),
    ),
    "orderline": lambda c: (
        # (ol_o_id, ol_number) stays unique while |ORDERLINE| <= 15·|ORDER|
        # (the paper's sizing has the ratio at 10).
        ("ol_o_id", _cycle(c["order"])),
        ("ol_d_id", _DISTRICT),
        ("ol_w_id", _cycle(c["warehouse"])),
        ("ol_number", lambda i: i // c["order"] % 15 + 1),
        ("ol_i_id", ("int", 1, c["item"] + 1)),
        ("ol_supply_w_id", _cycle(c["warehouse"])),
        ("ol_delivery_d", _DATE),
        ("ol_quantity", ("int", 1, 11)),
        ("ol_amount", ("int", 1, 10_000)),
        ("ol_dist_info", ("fill", 24)),
    ),
    "item": lambda c: (
        ("i_id", _row_number),
        ("i_im_id", ("int", 1, 10_001)),
        ("i_name", ("fill", 24)),
        ("i_price", ("int", 100, 10_001)),
        ("i_data", ("fill", 50)),
    ),
    "stock": lambda c: (
        # With |STOCK| == |ITEM| (the paper's sizing), (s_w_id, s_i_id)
        # stays unique because lcm(W, |ITEM|) >= |ITEM|.
        ("s_i_id", _cycle(c["item"])),
        ("s_w_id", _cycle(c["warehouse"])),
        ("s_quantity", ("int", 10, 101)),
        ("s_ytd", 0),
        ("s_order_cnt", 0),
        ("s_remote_cnt", 0),
        ("s_data", ("fill", 50)),
    )
    + tuple((f"s_dist_{d:02d}", ("fill", 24)) for d in range(1, 11)),
}


def _draw(stream: np.random.PCG64, rule: tuple, rows: int) -> np.ndarray:
    """The next ``rows`` rows of one drawn column (see the module docstring)."""
    if rule[0] == "int":
        _, low, high = rule
        high_halves = stream.random_raw(rows) >> np.uint64(32)
        return (high_halves * np.uint64(high - low) >> np.uint64(32)).astype(np.int64) + low
    width = rule[1]
    words = stream.random_raw(rows * -(-width // 2)).astype("<u8", copy=False)
    halves = words.view("<u4").reshape(rows, -1)[:, :width].astype(np.uint64)
    return (np.uint64(65) + (halves * np.uint64(26) >> np.uint64(32))).astype(np.uint8)


def generate_table(
    table: str, counts: Dict[str, int], seed: int = 7, block_rows: int = 1024
) -> Iterator[Dict[str, np.ndarray]]:
    """Yield ``counts[table]`` rows of ``table`` in blocks of ``block_rows``.

    A block maps every column to an array over its rows: ``int64`` for
    integer columns, an ``(n, width)`` ``uint8`` matrix for byte columns.
    ``counts`` must contain every table so foreign keys stay in range
    (e.g. ``ol_i_id`` points into the generated ITEM rows).
    """
    n = counts.get(table)
    if n is None:
        raise SchemaError(f"counts missing table {table!r}")
    # Generators derive foreign keys from other tables' counts.
    required = {"warehouse", "district", "customer", "order", "item"}
    missing = sorted(required - set(counts))
    if missing:
        raise SchemaError(f"counts missing foreign-key tables {missing}")
    generator = _GENERATORS.get(table)
    if generator is None:
        raise SchemaError(f"no generator for table {table!r}")
    rules = generator(counts)
    drawn = [(column, rule) for column, rule in rules if isinstance(rule, tuple)]
    children = np.random.SeedSequence(_table_seed(table, seed)).spawn(len(drawn))
    streams = {column: np.random.PCG64(child) for (column, _), child in zip(drawn, children)}
    for start in range(0, n, block_rows):
        i = np.arange(start, min(start + block_rows, n), dtype=np.int64)
        block: Dict[str, np.ndarray] = {}
        for column, rule in rules:
            if isinstance(rule, tuple):
                block[column] = _draw(streams[column], rule, i.size)
            elif callable(rule):
                block[column] = rule(i)
            elif isinstance(rule, bytes):
                block[column] = np.broadcast_to(
                    np.frombuffer(rule, dtype=np.uint8), (i.size, len(rule))
                )
            else:
                block[column] = np.full(i.size, rule, dtype=np.int64)
        yield block
