"""Figure 8 — unified data format results (§7.2).

* **(a)** CPU and PIM effective bandwidth as the threshold *th* sweeps
  0 → 1 (the trade-off of §4.1.2; the paper picks th = 0.6 giving
  97.4 % PIM / 59.8 % CPU).
* **(b)** storage breakdown: data vs. padding vs. snapshot bitmap
  (paper: negligible padding, 2.3 % bitmap).
* **(c)/(d)** the key-column study: maximum CPU (PIM) effective bandwidth
  achievable while keeping the other side above 70 %, as the OLAP subset
  grows Q1-1 → Q1-22 → ALL.
* The §7.2 generality check on HTAPBench (57 % CPU / 98 % PIM at
  th = 0.55).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import SystemConfig, dimm_system
from repro.experiments.common import (
    build_layouts,
    database_cpu_bandwidth,
    database_pim_bandwidth,
    database_storage,
)
from repro.format.bandwidth import (
    StorageBreakdown,
    cpu_effective_bandwidth,
    pim_effective_bandwidth,
)
from repro.format.binpack import compact_aligned_layout
from repro.workloads.chbench import all_queries, ch_schema
from repro.workloads.htapbench import (
    HTAPBENCH_TABLES,
    htapbench_key_columns,
    htapbench_scan_weights,
    htapbench_schema,
)

__all__ = [
    "ThPoint",
    "th_sweep",
    "storage_breakdown_point",
    "SubsetPoint",
    "subset_sweep",
    "htapbench_point",
    "DEFAULT_THS",
]

DEFAULT_THS = (0.0, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class ThPoint:
    """One point of the Fig. 8a sweep."""

    th: float
    cpu_bandwidth: float
    pim_bandwidth: float
    total_parts: int


def th_sweep(
    ths: Sequence[float] = DEFAULT_THS,
    queries: Optional[Sequence[str]] = None,
    config: Optional[SystemConfig] = None,
) -> List[ThPoint]:
    """Fig. 8a: CPU/PIM effective bandwidth vs th."""
    config = config or dimm_system()
    query_set = list(queries) if queries is not None else all_queries()
    out: List[ThPoint] = []
    for th in ths:
        layouts = build_layouts(th, query_set, config)
        out.append(
            ThPoint(
                th=th,
                cpu_bandwidth=database_cpu_bandwidth(layouts, config),
                pim_bandwidth=database_pim_bandwidth(layouts, query_set),
                total_parts=sum(l.num_parts for l in layouts.values()),
            )
        )
    return out


def storage_breakdown_point(
    th: float = 0.6,
    delta_fraction: float = 0.1,
    queries: Optional[Sequence[str]] = None,
    config: Optional[SystemConfig] = None,
) -> StorageBreakdown:
    """Fig. 8b: database storage breakdown at one th."""
    config = config or dimm_system()
    query_set = list(queries) if queries is not None else all_queries()
    layouts = build_layouts(th, query_set, config)
    return database_storage(layouts, delta_fraction)


@dataclass(frozen=True)
class SubsetPoint:
    """One OLAP-subset point of Fig. 8c/d."""

    subset: str
    num_key_columns: int
    max_cpu_with_pim_constraint: float
    max_pim_with_cpu_constraint: float
    cpu_constraint_feasible: bool
    pim_constraint_feasible: bool


def subset_sweep(
    subset_ends: Sequence[int] = (1, 3, 6, 10, 16, 22),
    constraint: float = 0.70,
    ths: Sequence[float] = DEFAULT_THS,
    config: Optional[SystemConfig] = None,
) -> List[SubsetPoint]:
    """Fig. 8c/d: bandwidth head-room as the query subset grows.

    Subsets are Q1..Qk prefixes plus the degenerate ``ALL`` (every column
    a key column — the naïve aligned format).
    """
    config = config or dimm_system()
    out: List[SubsetPoint] = []
    for end in subset_ends:
        queries = [f"Q{i}" for i in range(1, end + 1)]
        out.append(_subset_point(f"Q1-{end}", queries, None, constraint, ths, config))
    out.append(_subset_point("ALL", all_queries(), "all", constraint, ths, config))
    return out


def _subset_point(
    label: str,
    queries: Sequence[str],
    key_override: Optional[str],
    constraint: float,
    ths: Sequence[float],
    config: SystemConfig,
) -> SubsetPoint:
    schemas = ch_schema()
    d = config.geometry.devices_per_rank
    points = []
    num_keys = 0
    for th in ths:
        if key_override == "all":
            layouts = {
                name: compact_aligned_layout(
                    schemas[name], schemas[name].column_names, d, th
                )
                for name in schemas
            }
            num_keys = sum(len(s.columns) for s in schemas.values())
        else:
            layouts = build_layouts(th, queries, config)
            num_keys = sum(len(l.key_columns) for l in layouts.values())
        cpu = database_cpu_bandwidth(layouts, config)
        pim = database_pim_bandwidth(layouts, queries)
        points.append((th, cpu, pim))
    cpu_candidates = [c for _, c, p in points if p >= constraint]
    pim_candidates = [p for _, c, p in points if c >= constraint]
    cpu_feasible = bool(cpu_candidates)
    pim_feasible = bool(pim_candidates)
    max_cpu = max(cpu_candidates) if cpu_feasible else max(
        c for _, c, p in points
    )
    max_pim = max(pim_candidates) if pim_feasible else max(
        p for _, c, p in points
    )
    return SubsetPoint(
        subset=label,
        num_key_columns=num_keys,
        max_cpu_with_pim_constraint=max_cpu,
        max_pim_with_cpu_constraint=max_pim,
        cpu_constraint_feasible=cpu_feasible,
        pim_constraint_feasible=pim_feasible,
    )


def htapbench_point(
    th: float = 0.55, config: Optional[SystemConfig] = None
) -> Dict[str, float]:
    """§7.2 generality: CPU/PIM bandwidth on HTAPBench at one th."""
    config = config or dimm_system()
    schemas = htapbench_schema()
    d = config.geometry.devices_per_rank
    row_weights = {"account": 10, "teller": 1, "branch": 1, "txn_history": 50}
    layouts = {
        name: compact_aligned_layout(schemas[name], htapbench_key_columns(name), d, th)
        for name in HTAPBENCH_TABLES
    }
    return {
        "th": th,
        "cpu_bandwidth": cpu_effective_bandwidth(layouts, config.geometry, row_weights),
        "pim_bandwidth": pim_effective_bandwidth(layouts, {
            (name, column): weight * row_weights[name]
            for name in HTAPBENCH_TABLES
            for column, weight in htapbench_scan_weights(name).items()
        }),
    }
