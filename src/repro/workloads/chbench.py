"""CH-benCHmark schema and query column-usage map (§7.1).

CH-benCHmark combines TPC-C's nine tables (OLTP side) with TPC-H's 22
analytical queries adapted to that schema. The paper gives anchor points
we reproduce exactly:

* CUSTOMER column widths range 2–9 B for the Fig. 3/4 example columns;
  overall CH column widths span 2–152 B (§8; ``c_data`` is the 152 B
  extreme, ``ol_amount`` the 8 B example).
* The Q1-only key-column subset has 4 columns; Q1–Q3 has 32 (§7.2).
* ``c_id`` is scanned by 8 queries and ``c_state`` by 3 (§4.2).

The exact per-query column sets the authors used are not published; these
are reconstructed from the TPC-H query semantics over the TPC-C schema
(suppliers/nations folded onto warehouse/stock as CH does).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigError, SchemaError
from repro.format.schema import Column, TableSchema

__all__ = [
    "TABLE_NAMES",
    "PAPER_ROW_COUNTS",
    "ch_schema",
    "ch_table",
    "query_columns",
    "key_columns_for",
    "column_scan_weights",
    "all_queries",
    "row_counts",
]

#: The nine TPC-C tables.
TABLE_NAMES = (
    "warehouse",
    "district",
    "customer",
    "history",
    "neworder",
    "order",
    "orderline",
    "item",
    "stock",
)

#: Row counts used in the paper's evaluation (§7.1), scale = 1.0.
PAPER_ROW_COUNTS: Dict[str, int] = {
    "item": 20_000_000,
    "stock": 20_000_000,
    "customer": 6_000_000,
    "order": 6_000_000,
    "orderline": 60_000_000,
    "neworder": 60_000_000,
    "history": 6_000_000,
    "warehouse": 2_000,
    "district": 20_000,
}


def _int(name: str, width: int) -> Column:
    return Column(name, width, kind="int")


def _chars(name: str, width: int) -> Column:
    return Column(name, width, kind="bytes")


_SCHEMAS: Dict[str, TableSchema] = {
    "warehouse": TableSchema.of(
        "warehouse",
        [
            _int("w_id", 2),
            _chars("w_name", 10),
            _chars("w_street_1", 20),
            _chars("w_street_2", 20),
            _chars("w_city", 20),
            _int("w_state", 2),
            _chars("w_zip", 9),
            _int("w_tax", 3),
            _int("w_ytd", 6),
        ],
    ),
    "district": TableSchema.of(
        "district",
        [
            _int("d_id", 2),
            _int("d_w_id", 2),
            _chars("d_name", 10),
            _chars("d_street_1", 20),
            _chars("d_street_2", 20),
            _chars("d_city", 20),
            _int("d_state", 2),
            _chars("d_zip", 9),
            _int("d_tax", 3),
            _int("d_ytd", 6),
            _int("d_next_o_id", 4),
        ],
    ),
    "customer": TableSchema.of(
        "customer",
        [
            _int("c_id", 4),
            _int("c_d_id", 2),
            _int("c_w_id", 2),
            _chars("c_first", 16),
            _chars("c_middle", 2),
            _chars("c_last", 16),
            _chars("c_street_1", 20),
            _chars("c_street_2", 20),
            _chars("c_city", 20),
            _int("c_state", 2),
            _chars("c_zip", 9),
            _chars("c_phone", 16),
            _int("c_since", 6),
            _int("c_credit", 2),
            _int("c_credit_lim", 6),
            _int("c_discount", 3),
            _int("c_balance", 6),
            _int("c_ytd_payment", 6),
            _int("c_payment_cnt", 2),
            _int("c_delivery_cnt", 2),
            _chars("c_data", 152),
        ],
    ),
    "history": TableSchema.of(
        "history",
        [
            _int("h_c_id", 4),
            _int("h_c_d_id", 2),
            _int("h_c_w_id", 2),
            _int("h_d_id", 2),
            _int("h_w_id", 2),
            _int("h_date", 6),
            _int("h_amount", 5),
            _chars("h_data", 24),
        ],
    ),
    "neworder": TableSchema.of(
        "neworder",
        [
            _int("no_o_id", 4),
            _int("no_d_id", 2),
            _int("no_w_id", 2),
        ],
    ),
    "order": TableSchema.of(
        "order",
        [
            _int("o_id", 4),
            _int("o_d_id", 2),
            _int("o_w_id", 2),
            _int("o_c_id", 4),
            _int("o_entry_d", 6),
            _int("o_carrier_id", 2),
            _int("o_ol_cnt", 2),
            _int("o_all_local", 2),
        ],
    ),
    "orderline": TableSchema.of(
        "orderline",
        [
            _int("ol_o_id", 4),
            _int("ol_d_id", 2),
            _int("ol_w_id", 2),
            _int("ol_number", 2),
            _int("ol_i_id", 4),
            _int("ol_supply_w_id", 2),
            _int("ol_delivery_d", 6),
            _int("ol_quantity", 2),
            _int("ol_amount", 8),
            _chars("ol_dist_info", 24),
        ],
    ),
    "item": TableSchema.of(
        "item",
        [
            _int("i_id", 4),
            _int("i_im_id", 3),
            _chars("i_name", 24),
            _int("i_price", 3),
            _chars("i_data", 50),
        ],
    ),
    "stock": TableSchema.of(
        "stock",
        [
            _int("s_i_id", 4),
            _int("s_w_id", 2),
            _int("s_quantity", 2),
            _chars("s_dist_01", 24),
            _chars("s_dist_02", 24),
            _chars("s_dist_03", 24),
            _chars("s_dist_04", 24),
            _chars("s_dist_05", 24),
            _chars("s_dist_06", 24),
            _chars("s_dist_07", 24),
            _chars("s_dist_08", 24),
            _chars("s_dist_09", 24),
            _chars("s_dist_10", 24),
            _int("s_ytd", 5),
            _int("s_order_cnt", 2),
            _int("s_remote_cnt", 2),
            _chars("s_data", 50),
        ],
    ),
}

#: Columns each analytical query scans, reconstructed from TPC-H-over-CH.
#: Anchors: Q1 alone → 4 key columns; Q1–Q3 cumulative → 32; c_id in 8
#: queries; c_state in 3.
_QUERY_COLUMNS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "Q1": {"orderline": ("ol_number", "ol_quantity", "ol_amount", "ol_delivery_d")},
    "Q2": {
        "item": ("i_id", "i_im_id", "i_price"),
        "stock": ("s_i_id", "s_w_id", "s_quantity", "s_ytd", "s_order_cnt", "s_remote_cnt"),
    },
    "Q3": {
        "customer": ("c_id", "c_d_id", "c_w_id", "c_state", "c_balance", "c_since", "c_discount"),
        "order": ("o_id", "o_d_id", "o_w_id", "o_c_id", "o_entry_d", "o_carrier_id", "o_ol_cnt"),
        "orderline": ("ol_o_id", "ol_d_id", "ol_w_id", "ol_i_id", "ol_supply_w_id"),
    },
    "Q4": {
        "order": ("o_id", "o_d_id", "o_w_id", "o_entry_d", "o_ol_cnt"),
        "orderline": ("ol_o_id", "ol_d_id", "ol_w_id", "ol_delivery_d"),
    },
    "Q5": {
        "customer": ("c_id", "c_d_id", "c_w_id", "c_state"),
        "warehouse": ("w_id", "w_state"),
        "order": ("o_id", "o_d_id", "o_w_id", "o_c_id", "o_entry_d"),
        "orderline": ("ol_o_id", "ol_d_id", "ol_w_id", "ol_amount", "ol_supply_w_id"),
        "stock": ("s_i_id", "s_w_id"),
    },
    "Q6": {"orderline": ("ol_delivery_d", "ol_quantity", "ol_amount")},
    "Q7": {
        "customer": ("c_id", "c_d_id", "c_w_id"),
        "order": ("o_id", "o_d_id", "o_w_id", "o_c_id", "o_entry_d"),
        "orderline": ("ol_o_id", "ol_d_id", "ol_w_id", "ol_supply_w_id", "ol_amount", "ol_delivery_d"),
        "stock": ("s_i_id", "s_w_id"),
    },
    "Q8": {
        "customer": ("c_id", "c_d_id", "c_w_id"),
        "warehouse": ("w_id",),
        "item": ("i_id", "i_price"),
        "order": ("o_id", "o_d_id", "o_w_id", "o_c_id", "o_entry_d"),
        "orderline": ("ol_o_id", "ol_d_id", "ol_w_id", "ol_i_id", "ol_amount", "ol_supply_w_id"),
        "stock": ("s_i_id", "s_w_id"),
    },
    "Q9": {
        "item": ("i_id", "i_im_id"),
        "warehouse": ("w_id", "w_state"),
        "order": ("o_id", "o_d_id", "o_w_id", "o_entry_d"),
        "orderline": ("ol_o_id", "ol_d_id", "ol_w_id", "ol_i_id", "ol_amount", "ol_supply_w_id"),
        "stock": ("s_i_id", "s_w_id"),
    },
    "Q10": {
        "customer": ("c_id", "c_d_id", "c_w_id", "c_balance"),
        "order": ("o_id", "o_d_id", "o_w_id", "o_c_id", "o_entry_d"),
        "orderline": ("ol_o_id", "ol_d_id", "ol_w_id", "ol_amount", "ol_delivery_d"),
    },
    "Q11": {"stock": ("s_i_id", "s_w_id", "s_order_cnt", "s_quantity")},
    "Q12": {
        "order": ("o_id", "o_d_id", "o_w_id", "o_entry_d", "o_carrier_id", "o_ol_cnt"),
        "orderline": ("ol_o_id", "ol_d_id", "ol_w_id", "ol_delivery_d"),
    },
    "Q13": {
        "customer": ("c_id", "c_d_id", "c_w_id"),
        "order": ("o_id", "o_d_id", "o_w_id", "o_c_id", "o_carrier_id"),
    },
    "Q14": {
        "item": ("i_id", "i_price"),
        "orderline": ("ol_i_id", "ol_amount", "ol_delivery_d"),
    },
    "Q15": {
        "orderline": ("ol_supply_w_id", "ol_amount", "ol_delivery_d"),
        "stock": ("s_i_id", "s_w_id"),
    },
    "Q16": {
        "item": ("i_id", "i_im_id", "i_price"),
        "stock": ("s_i_id", "s_w_id", "s_quantity"),
    },
    "Q17": {
        "item": ("i_id", "i_im_id"),
        "orderline": ("ol_i_id", "ol_quantity", "ol_amount"),
    },
    "Q18": {
        "customer": ("c_id", "c_d_id", "c_w_id"),
        "order": ("o_id", "o_d_id", "o_w_id", "o_c_id", "o_ol_cnt"),
        "orderline": ("ol_o_id", "ol_d_id", "ol_w_id", "ol_amount", "ol_quantity"),
    },
    "Q19": {
        "item": ("i_id", "i_price", "i_im_id"),
        "orderline": ("ol_i_id", "ol_quantity", "ol_amount", "ol_w_id"),
    },
    "Q20": {
        "item": ("i_id",),
        "orderline": ("ol_i_id", "ol_delivery_d", "ol_quantity"),
        "stock": ("s_i_id", "s_w_id", "s_quantity"),
    },
    "Q21": {
        "warehouse": ("w_id", "w_state"),
        "order": ("o_id", "o_d_id", "o_w_id", "o_entry_d"),
        "orderline": ("ol_o_id", "ol_d_id", "ol_w_id", "ol_delivery_d", "ol_supply_w_id"),
        "stock": ("s_i_id", "s_w_id"),
    },
    "Q22": {
        "customer": ("c_id", "c_d_id", "c_w_id", "c_state", "c_balance"),
        "district": ("d_id", "d_w_id"),
        "order": ("o_id", "o_d_id", "o_w_id", "o_c_id"),
    },
}


def ch_schema() -> Dict[str, TableSchema]:
    """All nine table schemas, keyed by table name."""
    return dict(_SCHEMAS)


def ch_table(name: str) -> TableSchema:
    """One table's schema."""
    try:
        return _SCHEMAS[name]
    except KeyError:
        raise SchemaError(f"unknown CH table {name!r}") from None


def all_queries() -> List[str]:
    """Query names Q1..Q22, in order."""
    return [f"Q{i}" for i in range(1, 23)]


def query_columns(query: str) -> Dict[str, Tuple[str, ...]]:
    """Columns a query scans, per table."""
    try:
        return dict(_QUERY_COLUMNS[query])
    except KeyError:
        raise SchemaError(f"unknown CH query {query!r}") from None


def key_columns_for(queries: Sequence[str], table: str) -> List[str]:
    """Union of columns the given queries scan in ``table``.

    Order follows the table's schema, matching the deterministic layout
    generation.
    """
    schema = ch_table(table)
    used = set()
    for query in queries:
        used.update(query_columns(query).get(table, ()))
    unknown = used - set(schema.column_names)
    if unknown:
        raise SchemaError(f"query columns {sorted(unknown)} not in table {table!r}")
    return [c for c in schema.column_names if c in used]


def column_scan_weights(queries: Sequence[str], table: str) -> Dict[str, int]:
    """How many of the given queries scan each column of ``table``."""
    weights: Dict[str, int] = {}
    for query in queries:
        for column in query_columns(query).get(table, ()):
            weights[column] = weights.get(column, 0) + 1
    return weights


def row_counts(scale: float) -> Dict[str, int]:
    """Paper row counts scaled by ``scale`` (min 1 row, min 1 warehouse).

    DISTRICT is derived as 10 per warehouse after scaling so the
    warehouse→district→customer foreign keys stay consistent at any
    scale (the generators assign ``d_id = i % 10 + 1``).
    """
    if not 0 < scale < float("inf"):  # NaN fails both comparisons
        raise ConfigError(f"scale must be a positive finite number, got {scale!r}")
    counts = {name: max(1, int(count * scale)) for name, count in PAPER_ROW_COUNTS.items()}
    counts["district"] = counts["warehouse"] * 10
    return counts
