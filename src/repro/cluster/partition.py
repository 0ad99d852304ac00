"""Warehouse partitioning of the CH-benCHmark database across shards.

TPC-C partitions naturally by warehouse: every table except ITEM carries
a warehouse column, and the transactions touch remote warehouses only
through the ~1 %/15 % remote New-Order/Payment rates. A shard therefore
holds the rows of the warehouses assigned to it (round-robin:
``shard_of(w) = (w - 1) % N``) plus a full replica of the read-only ITEM
table, and a cluster of N shards covers exactly the single-engine
database — the property the scatter-gather OLAP tests lock in by
comparing merged shard results bit-identically against one engine
loaded with the union of the data.

Each shard engine is built through :meth:`PushTapEngine.build` with the
*global* row counts and a ``row_filter`` keeping its partition, so every
shard consumes the same deterministic generator stream and retains a
disjoint (ITEM aside) subset; capacities and MVCC state are sized to the
retained rows. A 1-shard cluster passes ``row_filter=None`` and is the
bare engine, byte for byte.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.engine import PushTapEngine
from repro.errors import ConfigError
from repro.units import round_up
from repro.workloads.chbench import row_counts

__all__ = [
    "PARTITION_COLUMNS",
    "shard_of",
    "shard_warehouses",
    "cluster_row_counts",
    "partition_row_filter",
    "build_shard",
]

#: The warehouse column each table partitions on (None → replicated).
PARTITION_COLUMNS: Dict[str, Optional[str]] = {
    "warehouse": "w_id",
    "district": "d_w_id",
    "customer": "c_w_id",
    "history": "h_w_id",
    "order": "o_w_id",
    "neworder": "no_w_id",
    "orderline": "ol_w_id",
    "stock": "s_w_id",
    "item": None,
}


def shard_of(w_id: int, num_shards: int) -> int:
    """The shard owning warehouse ``w_id`` (round-robin assignment)."""
    return (int(w_id) - 1) % int(num_shards)


def shard_warehouses(shard: int, num_shards: int, warehouses: int) -> List[int]:
    """The warehouses resident on ``shard`` (ascending)."""
    return [
        w for w in range(1, int(warehouses) + 1) if shard_of(w, num_shards) == shard
    ]


def cluster_row_counts(scale: float, num_shards: int) -> Dict[str, int]:
    """Row counts for an N-shard cluster at ``scale``.

    With one shard this is exactly :func:`~repro.workloads.chbench.row_counts`
    (the bare engine's counts — bit-identity demands it). With more, the
    warehouse count is raised to a multiple of ``num_shards`` (so every
    shard owns the same number of warehouses), districts follow at 10 per
    warehouse, and ITEM/STOCK are raised to a multiple of the warehouse
    count so each warehouse supplies the same number of items. The other
    tables keep their scale-derived totals: the cluster holds the *same*
    data volume regardless of N, which is what makes the shard-count
    sweep a scaling experiment rather than a data-size one.
    """
    if type(num_shards) is not int or num_shards < 1:
        raise ConfigError(f"num_shards must be an int >= 1, got {num_shards!r}")
    counts = row_counts(scale)
    if num_shards == 1:
        return counts
    warehouses = round_up(max(counts["warehouse"], num_shards), num_shards)
    counts["warehouse"] = warehouses
    counts["district"] = warehouses * 10
    items = round_up(max(counts["item"], warehouses), warehouses)
    counts["item"] = items
    counts["stock"] = items
    return counts


def partition_row_filter(
    shard: int, num_shards: int
) -> Callable[[str, Dict[str, np.ndarray]], Optional[np.ndarray]]:
    """A :meth:`PushTapEngine.build` row filter keeping ``shard``'s rows:
    the mask of a block's rows whose warehouse the shard owns, or
    ``None`` (keep all) for the replicated ITEM table."""

    def keep(table: str, columns: Dict[str, np.ndarray]) -> Optional[np.ndarray]:
        column = PARTITION_COLUMNS[table]
        if column is None:
            return None
        return (columns[column] - 1) % num_shards == shard

    return keep


def build_shard(
    shard: int,
    num_shards: int,
    counts: Dict[str, int],
    **build_kwargs,
) -> PushTapEngine:
    """Build one shard engine over the global generator stream.

    A 1-shard cluster passes no filter at all, so its engine streams the
    generator straight into the loader and is bit-identical to
    ``PushTapEngine.build(counts=counts, ...)``; a filtered shard keeps
    its partition's column blocks first (capacities are sized from them)
    and hands them to the same :meth:`TableRuntime.load_columns`.
    """
    for name, value in (("shard", shard), ("num_shards", num_shards)):
        if type(value) is not int:
            raise ConfigError(f"{name} must be an int, got {value!r}")
    if not 0 <= shard < num_shards:
        raise ConfigError(f"shard {shard} outside [0, {num_shards})")
    if counts["warehouse"] < num_shards:
        raise ConfigError(
            f"{counts['warehouse']} warehouse(s) cannot cover {num_shards} shards"
        )
    row_filter = None if num_shards == 1 else partition_row_filter(shard, num_shards)
    return PushTapEngine.build(counts=counts, row_filter=row_filter, **build_kwargs)
