"""Ablations of PUSHtap's design choices (DESIGN.md per-experiment index).

Each ablation isolates one mechanism the paper motivates:

* **block-circulant placement** (Fig. 5a vs 5b) — rotation on/off, same
  data, same query: parallelism and scan time;
* **leftover policy** — the bin-packer's th-guarantee (``pad``) vs
  padding-minimizing (``absorb``) variants: storage vs PIM bandwidth;
* **threshold th end-to-end** — measured Q6 latency under layouts built
  at different th values (the Fig. 8a trade-off surfacing in real query
  time);
* **key-column fallback** — scanning a column as a key column (PIM) vs
  as a normal column (CPU fallback, §4.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.config import SystemConfig, dimm_system
from repro.core.engine import PushTapEngine
from repro.experiments.common import database_pim_bandwidth
from repro.format.binpack import compact_aligned_layout_with_report
from repro.olap.cost import column_scan_cost
from repro.olap.operators import FilterOperation
from repro.pim.pim_unit import Condition
from repro.workloads.chbench import all_queries, ch_schema, key_columns_for, row_counts

__all__ = [
    "CirculantPoint",
    "circulant_ablation",
    "LeftoverPoint",
    "leftover_policy_ablation",
    "ThLatencyPoint",
    "th_latency_ablation",
    "FallbackPoint",
    "key_column_fallback_ablation",
]


@dataclass(frozen=True)
class CirculantPoint:
    """One side of the rotation ablation."""

    circulant: bool
    units_used: int
    scan_time: float
    matches: int


def circulant_ablation(
    scale: float = 5e-5, config: Optional[SystemConfig] = None
) -> List[CirculantPoint]:
    """Fig. 5a vs 5b: scan one column with rotation on and off."""
    out: List[CirculantPoint] = []
    for circulant in (True, False):
        engine = PushTapEngine.build(
            config=config,
            scale=scale,
            defrag_period=0,
            block_rows=256,
            circulant=circulant,
        )
        table = engine.table("orderline")
        ts = engine.db.oracle.read_timestamp()
        table.snapshots.update_to(ts)
        op = FilterOperation(
            table.storage,
            engine.units,
            "ol_amount",
            Condition("ge", 0),
            table.region_rows(),
        )
        result = engine.olap.executor.execute(op)
        out.append(
            CirculantPoint(
                circulant=circulant,
                units_used=len(op.participating_units()),
                scan_time=result.total_time,
                matches=int(op.mask.sum()),
            )
        )
    return out


@dataclass(frozen=True)
class LeftoverPoint:
    """One bin-packer leftover policy."""

    policy: str
    padding_fraction: float
    pim_bandwidth: float
    relaxed_keys: int


def leftover_policy_ablation(
    th: float = 0.6, config: Optional[SystemConfig] = None
) -> List[LeftoverPoint]:
    """th-guarantee (pad) vs padding-minimizing (absorb) layouts."""
    config = config or dimm_system()
    schemas = ch_schema()
    counts = row_counts(1.0)
    queries = all_queries()
    d = config.geometry.devices_per_rank
    out: List[LeftoverPoint] = []
    for policy in ("pad", "absorb"):
        layouts = {}
        pad_bytes = stored_bytes = 0
        relaxed = 0
        for name, schema in schemas.items():
            layout, report = compact_aligned_layout_with_report(
                schema, key_columns_for(queries, name), d, th, policy
            )
            layouts[name] = layout
            pad_bytes += report.padding_bytes_per_row * counts[name]
            stored_bytes += report.stored_bytes_per_row * counts[name]
            relaxed += len(report.relaxed_keys)
        out.append(
            LeftoverPoint(
                policy=policy,
                padding_fraction=pad_bytes / stored_bytes,
                pim_bandwidth=database_pim_bandwidth(layouts, queries),
                relaxed_keys=relaxed,
            )
        )
    return out


@dataclass(frozen=True)
class ThLatencyPoint:
    """Measured Q6 latency under one th layout."""

    th: float
    q6_time: float
    revenue: int


def th_latency_ablation(
    ths: Sequence[float] = (0.0, 0.6, 1.0),
    scale: float = 5e-5,
    config: Optional[SystemConfig] = None,
) -> List[ThLatencyPoint]:
    """End-to-end Fig. 8a: the th trade-off in actual query latency."""
    out: List[ThLatencyPoint] = []
    for th in ths:
        engine = PushTapEngine.build(
            config=config, scale=scale, th=th, defrag_period=0, block_rows=256
        )
        result = engine.query("Q6")
        out.append(ThLatencyPoint(th=th, q6_time=result.total_time,
                                  revenue=result.rows["revenue"]))
    return out


@dataclass(frozen=True)
class FallbackPoint:
    """Key-column PIM scan vs normal-column CPU fallback, full scale."""

    path: str
    scan_time: float


def key_column_fallback_ablation(
    num_rows: int = 60_000_000,
    width: int = 6,
    part_row_width: int = 8,
    config: Optional[SystemConfig] = None,
) -> List[FallbackPoint]:
    """§4.1.2: the cost of demoting a scanned column to normal.

    PIM path: the whole PIM array streams the column's part. CPU path:
    the memory bus streams every part containing the column's bytes.
    """
    config = config or dimm_system()
    pim = column_scan_cost(config, num_rows, width, part_row_width=part_row_width)
    cpu_bytes = num_rows * part_row_width * config.geometry.devices_per_rank
    cpu_time = cpu_bytes / config.total_cpu_bandwidth
    return [
        FallbackPoint("PIM (key column)", pim.total_time),
        FallbackPoint("CPU fallback (normal column)", cpu_time),
    ]
