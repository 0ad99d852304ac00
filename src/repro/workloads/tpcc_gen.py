"""Deterministic TPC-C / CH-benCHmark data generation, a block of rows at a time.

Generates tables with consistent foreign keys at any scale. Values follow
TPC-C's ranges where they matter to the queries (item ids, delivery dates,
quantities, amounts); text columns get cheap deterministic filler. All
randomness is seeded, so tests and benchmarks are reproducible.

A table is *data* (:data:`_GENERATORS`): per column either a function of
the row number, a constant, or a draw — ``("int", lo, hi)`` for the legacy
``int(rng.randint(lo, hi))``, ``("fill", width)`` for the legacy
``bytes(rng.randint(65, 91, size=width, dtype=np.uint8))`` — the draws
listed in the order the legacy per-row generator made them.
:func:`generate_table` yields blocks of rows as column arrays;
:func:`generate_rows` is the dict-per-row view of the same blocks.

**The replay contract.** Every pinned device image and ``sim_digest``
depends on the legacy ``RandomState`` stream, where a row's draws are
``randint`` calls of different ranges, sizes and dtypes. The blocks replay
that stream byte for byte without one call per draw:

* ``rng.randint(0, 2**32, size=k, dtype=np.uint32)`` returns the next ``k``
  raw 32-bit words of the stream, so words are pulled in bulk and unused
  ones carried into the next block (the ``RandomState`` is private to one
  table; words past the last row are dropped).
* ``randint(lo, hi)`` with ``r = hi - 1 - lo`` (``r < 2**32``): ``r == 0``
  draws nothing; else ``mask = 2**r.bit_length() - 1`` and words are taken
  until ``w & mask <= r``, the value being ``lo + (w & mask)``.
* ``randint(65, 91, size=w, dtype=np.uint8)`` eats the bytes of successive
  words low byte first, keeps ``b & 31`` where it is ``<= 25`` until ``w``
  are kept, and drops the rest of its last word (the byte buffer is per
  call).

The parse has no per-draw step: per distinct draw shape, ``next[p]`` is the
word position after one such draw started at word ``p``, for all ``p`` at
once (int: reversed ``minimum.accumulate`` over the accepted positions,
plus one; fill: the word holding the ``w``-th accepted byte counted from
word ``p``, plus one). Composing them in the row's order gives the position
after one *row* started at ``p``; the row starts are the orbit of 0 under
that map (one lookup per row), and every draw's values are then one gather.
Too few words for the rows asked: pull more and parse again.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SchemaError
from repro.format.schema import Value
from repro.workloads.chbench import row_counts

__all__ = [
    "DATE_EPOCH",
    "DATE_HORIZON",
    "generate_table",
    "generate_rows",
    "generate_database",
]

#: Synthetic date range (days) used for *_d / *_date columns.
DATE_EPOCH = 1_000
DATE_HORIZON = 3_000

#: Rows parsed per replay step. It bounds the replay's working set (a few
#: position arrays per draw shape, each as long as the step's words)
#: whatever ``block_rows`` the caller stores by. Measured, not derived:
#: EXPERIMENTS.md "Set-up as column blocks" has the sizes tried and what
#: each did to peak memory and to the allocator state queries inherit.
_REPLAY_ROWS = 512

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
#: row-number array, a draw tuple, or a constant. Draw order within a row
#: is the legacy generator's and may not change (see the module docstring).
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


class _Replay:
    """The legacy draws of one table's rows, parsed from raw stream words.

    ``draws`` are the row's ``(column, shape)`` pairs in legacy order;
    :meth:`take` returns the next ``rows`` rows' values per column. The
    only state is the ``RandomState`` and the words pulled but not yet
    consumed.
    """

    def __init__(self, rng: np.random.RandomState, draws: Sequence[Tuple[str, tuple]]):
        self.rng = rng
        self.words = np.empty(0, dtype=np.uint32)
        self.draws = []
        self.words_per_row = 0.0
        for column, shape in draws:
            if shape[0] == "int":
                _, low, high = shape
                span = high - 1 - low
                if not 0 <= span < 1 << 32:
                    raise SchemaError(f"draw {shape} of {column!r} is not a 32-bit range")
                mask = (1 << span.bit_length()) - 1
                shape = ("int", low, span, mask)
                self.words_per_row += (mask + 1) / (span + 1) if span else 0.0
            else:
                # 26 of 32 byte values are accepted, four bytes a word,
                # and the rest of the last word is dropped.
                self.words_per_row += shape[1] * 32 / 26 / 4 + 0.5
            self.draws.append((column, shape))

    def take(self, rows: int) -> Dict[str, np.ndarray]:
        """The next ``rows`` rows of every drawn column."""
        out = {
            column: np.empty(rows, dtype=np.int64)
            if shape[0] == "int"
            else np.empty((rows, shape[1]), dtype=np.uint8)
            for column, shape in self.draws
        }
        for start in range(0, rows, _REPLAY_ROWS):
            stop = min(start + _REPLAY_ROWS, rows)
            want = int(self.words_per_row * (stop - start) * 1.05) + 64
            while True:
                if self.words.size < want:
                    fresh = self.rng.randint(
                        0, 1 << 32, size=want - self.words.size, dtype=np.uint32
                    )
                    self.words = np.concatenate([self.words, fresh])
                if self._parse({c: v[start:stop] for c, v in out.items()}, stop - start):
                    break
                want = self.words.size + want // 4
        return out

    def _parse(self, out: Dict[str, np.ndarray], rows: int) -> bool:
        """Fill ``out`` with ``rows`` rows parsed from the front of
        ``self.words`` and drop what they consumed; False when the words
        run out first (nothing is consumed then)."""
        words = self.words
        size = words.size
        # Positions run 0..size; size + 1 is "ran off the words", which
        # every map below sends to itself.
        short = size + 1
        positions = np.arange(size, dtype=np.int32)
        after: Dict[tuple, np.ndarray] = {}
        payload: Dict[tuple, np.ndarray] = {}
        fills = sorted({s[1] for _, s in self.draws if s[0] == "fill"})
        if fills:
            lanes = words.astype("<u4", copy=False).view(np.uint8) & 31
            accepted = lanes <= 25
            # kept[k]: byte position of the k-th accepted byte; the word
            # after the one holding it is where a draw ending there ends.
            kept = np.flatnonzero(accepted).astype(np.int32)
            end_of = np.concatenate(
                [(kept >> 2) + 1, np.full(fills[-1], short, dtype=np.int32)]
            )
            # before[p]: accepted bytes in words 0..p-1 (a word's four 0/1
            # flags summed by one multiply).
            per_word = (accepted.view(np.uint32) * np.uint32(0x01010101)) >> np.uint32(24)
            before = np.zeros(size + 2, dtype=np.int32)
            np.cumsum(per_word, out=before[1 : size + 1])
            before[short] = before[size]
            for width in fills:
                after["fill", width] = end_of[before + (width - 1)]
        for _, shape in self.draws:
            if shape[0] == "int" and shape[2] and shape not in after:
                _, _, span, mask = shape
                masked = words & np.uint32(mask)
                first = np.where(masked <= span, positions, np.int32(size))
                step = np.full(size + 2, short, dtype=np.int32)
                step[:size] = np.minimum.accumulate(first[::-1])[::-1] + 1
                after[shape] = step
                payload[shape] = masked

        row_after: Optional[np.ndarray] = None
        for _, shape in self.draws:
            step = after.get(shape)
            if step is not None:
                row_after = step if row_after is None else step[row_after]
        starts = [0] * rows
        position = 0
        if row_after is not None:
            for row in range(rows):
                starts[row] = position
                position = int(row_after[position])
            if position == short:
                return False

        at = np.array(starts, dtype=np.int32)
        for column, shape in self.draws:
            if shape[0] == "fill":
                width = shape[1]
                taken = kept[before[at][:, None] + np.arange(width)]
                out[column][:] = lanes[taken] + np.uint8(65)
                at = after[shape][at]
            elif shape[2] == 0:
                out[column][:] = shape[1]
            else:
                at = after[shape][at]
                out[column][:] = payload[shape][at - 1].astype(np.int64) + shape[1]
        self.words = words[position:]
        return True


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
    replay = _Replay(
        np.random.RandomState(_table_seed(table, seed)),
        [(column, rule) for column, rule in rules if isinstance(rule, tuple)],
    )
    for start in range(0, n, block_rows):
        i = np.arange(start, min(start + block_rows, n), dtype=np.int64)
        drawn = replay.take(i.size)
        block: Dict[str, np.ndarray] = {}
        for column, rule in rules:
            if isinstance(rule, tuple):
                block[column] = drawn[column]
            elif callable(rule):
                block[column] = rule(i)
            elif isinstance(rule, bytes):
                block[column] = np.broadcast_to(
                    np.frombuffer(rule, dtype=np.uint8), (i.size, len(rule))
                )
            else:
                block[column] = np.full(i.size, rule, dtype=np.int64)
        yield block


def generate_rows(
    table: str, counts: Dict[str, int], seed: int = 7
) -> Iterator[Dict[str, Value]]:
    """The rows of :func:`generate_table` as dicts (``int`` / ``bytes``)."""
    for block in generate_table(table, counts, seed):
        values = [
            v.tolist() if v.ndim == 1 else [row.tobytes() for row in v]
            for v in block.values()
        ]
        for row in zip(*values):
            yield dict(zip(block, row))


def generate_database(
    scale: float, seed: int = 7, tables: List[str] = None
) -> Dict[str, List[Dict[str, Value]]]:
    """Generate all (or selected) tables at ``scale``."""
    counts = row_counts(scale)
    names = tables if tables is not None else list(counts)
    return {t: list(generate_rows(t, counts, seed)) for t in names}
