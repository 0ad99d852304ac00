"""Shared helpers for the experiment modules (one module per figure).

Database-wide effective bandwidths aggregate the per-table layout models
of :mod:`repro.format.bandwidth`:

* **CPU** — row accesses hit tables proportionally to their row counts,
  so the database CPU effective bandwidth is the row-weighted ratio of
  useful to transferred bytes;
* **PIM** — scans hit key columns proportionally to their query scan
  frequency × table size.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.format.bandwidth import (
    cpu_effective_bandwidth,
    pim_effective_bandwidth,
    storage_breakdown,
    StorageBreakdown,
)
from repro.format.binpack import compact_aligned_layout
from repro.format.layout import UnifiedLayout
from repro.workloads.chbench import (
    ch_schema,
    column_scan_weights,
    key_columns_for,
    row_counts,
)

__all__ = [
    "build_layouts",
    "database_cpu_bandwidth",
    "database_pim_bandwidth",
    "database_storage",
    "query_scan_columns",
]


def build_layouts(
    th: float,
    queries: Sequence[str],
    config: SystemConfig,
    tables: Sequence[str] = None,
) -> Dict[str, UnifiedLayout]:
    """Compact-aligned layouts of the CH tables for one (th, queries)."""
    schemas = ch_schema()
    names = list(tables) if tables is not None else list(schemas)
    d = config.geometry.devices_per_rank
    return {
        name: compact_aligned_layout(
            schemas[name], key_columns_for(queries, name), d, th
        )
        for name in names
    }


def database_cpu_bandwidth(
    layouts: Mapping[str, UnifiedLayout],
    config: SystemConfig,
    weights: Mapping[str, int] = None,
) -> float:
    """Row-weighted CPU effective bandwidth over all tables."""
    counts = weights if weights is not None else row_counts(1.0)
    return cpu_effective_bandwidth(layouts, config.geometry, counts)


def database_pim_bandwidth(
    layouts: Mapping[str, UnifiedLayout],
    queries: Sequence[str],
    weights: Mapping[str, int] = None,
) -> float:
    """Scan-weighted PIM effective bandwidth over all key columns. A
    scanned column that is not a key column of its table runs on the CPU
    (§4.1.2), so it carries no PIM weight."""
    counts = weights if weights is not None else row_counts(1.0)
    return pim_effective_bandwidth(layouts, {
        (name, column): weight * counts[name]
        for name, layout in layouts.items() if counts.get(name, 0)
        for column, weight in column_scan_weights(queries, name).items()
        if column in layout.key_columns
    })


def database_storage(
    layouts: Mapping[str, UnifiedLayout],
    delta_fraction: float = 0.1,
    weights: Mapping[str, int] = None,
) -> StorageBreakdown:
    """Whole-database storage breakdown (Fig. 8b)."""
    counts = weights if weights is not None else row_counts(1.0)
    total = StorageBreakdown(0, 0, 0)
    for name, layout in layouts.items():
        total = total.merge(storage_breakdown(layout, counts.get(name, 0), delta_fraction))
    return total


#: (table, column) scan lists of the three executable queries, used by the
#: analytic full-scale models. Q9 scans two tables.
_QUERY_SCANS: Dict[str, List[Tuple[str, str]]] = {
    "Q1": [
        ("orderline", "ol_delivery_d"),
        ("orderline", "ol_number"),
        ("orderline", "ol_quantity"),
        ("orderline", "ol_amount"),
    ],
    "Q6": [
        ("orderline", "ol_delivery_d"),
        ("orderline", "ol_delivery_d"),
        ("orderline", "ol_quantity"),
        ("orderline", "ol_quantity"),
        ("orderline", "ol_amount"),
    ],
    "Q9": [
        ("item", "i_im_id"),
        ("item", "i_id"),
        ("orderline", "ol_i_id"),
        ("orderline", "ol_amount"),
    ],
}


def query_scan_columns(query: str, scale: float = 1.0) -> List[Tuple[int, int]]:
    """``(rows, width)`` scan list of one executable query at ``scale``."""
    schemas = ch_schema()
    counts = row_counts(scale)
    out: List[Tuple[int, int]] = []
    for table, column in _QUERY_SCANS[query]:
        out.append((counts[table], schemas[table].column(column).width))
    return out
