"""Figure 12 — defragmentation strategies and architecture comparison.

* **(a)** defragmentation time under purely-CPU, purely-PIM, and the
  hybrid strategy of §5.3: with the unified format producing part row
  widths from 2 B to 20+ B, neither pure strategy wins everywhere; the
  hybrid picks per part via Eq. 3 and is never worse.
* **(b)** Q6 execution time across WRAM sizes (16 kB–256 kB) on the
  original PIM architecture vs PUSHtap's extended controller (§7.5):
  the original improves 6.4× as WRAM grows because mode-switch overhead
  amortizes (88.8 % → 35.3 % of compute time); PUSHtap barely moves
  (~7 % overhead) and is ~3× faster at the default 64 kB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import SystemConfig, dimm_system
from repro.core.defrag import comm_cpu_time, comm_pim_time, pim_breakeven_width
from repro.experiments.common import build_layouts, query_scan_columns
from repro.mvcc.metadata import METADATA_BYTES
from repro.olap.cost import ScanCost, column_scan_cost
from repro.units import KIB
from repro.workloads.chbench import all_queries

__all__ = [
    "DefragStrategyPoint",
    "defrag_strategy_comparison",
    "WramPoint",
    "wram_size_sweep",
    "DEFAULT_WRAM_SIZES",
]

DEFAULT_WRAM_SIZES = (16 * KIB, 32 * KIB, 64 * KIB, 128 * KIB, 256 * KIB)


@dataclass(frozen=True)
class DefragStrategyPoint:
    """Defragmentation time of one strategy over the real table parts."""

    strategy: str
    total_time: float
    per_part: Dict[int, float]


def defrag_strategy_comparison(
    delta_rows: int = 50_000,
    newest_fraction: float = 0.9,
    th: float = 0.6,
    config: Optional[SystemConfig] = None,
) -> List[DefragStrategyPoint]:
    """Fig. 12a: CPU vs PIM vs hybrid defragmentation.

    Uses the real compact-aligned layouts' part widths (2 B to 20+ B
    across the CH tables under th = 0.6) with the Eq. 1/2 cost model;
    hybrid assigns each part by the Eq. 3 break-even width.
    """
    config = config or dimm_system()
    layouts = build_layouts(th, all_queries(), config)
    widths: List[int] = []
    for layout in layouts.values():
        widths.extend(part.row_width for part in layout.parts)
    d = config.geometry.devices_per_rank
    bdw_cpu = config.total_cpu_bandwidth
    bdw_pim = config.total_pim_bandwidth
    threshold = pim_breakeven_width(METADATA_BYTES, newest_fraction, bdw_cpu, bdw_pim)
    share = max(1, delta_rows // len(widths))

    out: List[DefragStrategyPoint] = []
    for strategy in ("cpu", "pim", "hybrid"):
        per_part: Dict[int, float] = {}
        for index, width in enumerate(widths):
            use_pim = strategy == "pim" or (strategy == "hybrid" and width > threshold)
            if use_pim:
                cost = comm_pim_time(
                    METADATA_BYTES, share, newest_fraction, d, width, bdw_cpu, bdw_pim
                )
            else:
                cost = comm_cpu_time(
                    METADATA_BYTES, share, newest_fraction, d, width, bdw_cpu
                )
            per_part[index] = cost
        out.append(DefragStrategyPoint(strategy, sum(per_part.values()), per_part))
    return out


@dataclass(frozen=True)
class WramPoint:
    """One WRAM size of the Fig. 12b sweep."""

    wram_bytes: int
    controller: str
    q6_time: float
    control_fraction: float
    cpu_blocked_time: float


def wram_size_sweep(
    wram_sizes: Sequence[int] = DEFAULT_WRAM_SIZES,
    scale: float = 1.0,
    config: Optional[SystemConfig] = None,
) -> List[WramPoint]:
    """Fig. 12b: Q6 time vs WRAM size, original PIM vs PUSHtap."""
    config = config or dimm_system()
    columns = query_scan_columns("Q6", scale)
    out: List[WramPoint] = []
    for controller in ("original", "pushtap"):
        for wram in wram_sizes:
            costs: List[ScanCost] = [
                column_scan_cost(
                    config,
                    rows,
                    width,
                    controller_kind=controller,
                    wram_bytes=wram,
                )
                for rows, width in columns
            ]
            total = sum(c.total_time for c in costs)
            control = sum(c.control_time for c in costs)
            blocked = sum(c.cpu_blocked_time for c in costs)
            out.append(
                WramPoint(
                    wram_bytes=wram,
                    controller=controller,
                    q6_time=total,
                    control_fraction=control / total,
                    cpu_blocked_time=blocked,
                )
            )
    return out
