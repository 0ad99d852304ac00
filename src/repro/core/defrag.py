"""Defragmentation (§5.3): CPU, PIM, and hybrid strategies with Eq. 1–3.

After many transactions the data region accumulates superseded rows and
the delta region fills up. Defragmentation copies each updated row's
newest delta version back over its origin data row (rotations match by
construction, so every PIM unit can copy device-locally), truncates the
version chains, and empties the delta region. OLTP is paused meanwhile.

Two movement strategies exist; their communication costs are the paper's
Eq. 1 and Eq. 2, and Eq. 3 gives the row-width break-even point. The
*hybrid* strategy picks per table part (parts have different row widths,
§7.4/Fig. 12a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.snapshot import SnapshotManager
from repro.core.storage import TableStorage
from repro.errors import DefragError
from repro.mvcc.manager import MVCCManager
from repro.mvcc.metadata import METADATA_BYTES, Region
from repro.telemetry import registry as telemetry
from repro.units import US

__all__ = [
    "Strategy",
    "comm_cpu_time",
    "comm_pim_time",
    "pim_breakeven_width",
    "DefragBreakdown",
    "DefragResult",
    "DefragExecutor",
]


class Strategy:
    """Defragmentation data-movement strategies."""

    CPU = "cpu"
    PIM = "pim"
    HYBRID = "hybrid"

    ALL = (CPU, PIM, HYBRID)


def comm_cpu_time(
    m: int, n: int, p: float, d: int, w: int, bdw_cpu: float
) -> float:
    """Eq. 1 — CPU-moved defragmentation communication time (ns).

    ``m`` metadata bytes, ``n`` delta rows, ``p`` the newest-version
    fraction, ``d`` devices, ``w`` row width (per device),
    ``bdw_cpu`` in bytes/ns.
    """
    _check_args(m, n, p, d, w)
    return (m * n + 2 * n * p * d * w) / bdw_cpu


def comm_pim_time(
    m: int, n: int, p: float, d: int, w: int, bdw_cpu: float, bdw_pim: float
) -> float:
    """Eq. 2 — PIM-moved defragmentation communication time (ns)."""
    _check_args(m, n, p, d, w)
    return (m * n + d * m * n) / bdw_cpu + (d * m * n + 2 * n * p * d * w) / bdw_pim


def pim_breakeven_width(m: int, p: float, bdw_cpu: float, bdw_pim: float) -> float:
    """Eq. 3 — row width above which the PIM strategy wins.

    With ``bdw_pim <= bdw_cpu`` (e.g. the HBM system) Eq. 3 has no
    crossover: CPU movement always wins, so the width is infinite.
    """
    if p <= 0:
        raise DefragError("newest-version fraction p must be positive")
    if bdw_pim <= bdw_cpu:
        return float("inf")
    return (bdw_pim + bdw_cpu) / (2 * p * (bdw_pim - bdw_cpu)) * m


def _check_args(m: int, n: int, p: float, d: int, w: int) -> None:
    if min(m, n, d, w) < 0 or not 0.0 <= p <= 1.0:
        raise DefragError(
            f"invalid defrag cost arguments m={m} n={n} p={p} d={d} w={w}"
        )


@dataclass
class DefragBreakdown:
    """Time breakdown of one defragmentation run (Fig. 11d)."""

    fixed: float = 0.0
    chain_traversal: float = 0.0
    metadata_read: float = 0.0
    broadcast: float = 0.0
    copy_cpu: float = 0.0
    copy_pim: float = 0.0

    @property
    def total(self) -> float:
        """Total defragmentation time."""
        return (
            self.fixed
            + self.chain_traversal
            + self.metadata_read
            + self.broadcast
            + self.copy_cpu
            + self.copy_pim
        )


@dataclass
class DefragResult:
    """Outcome of one defragmentation run."""

    strategy: str
    moved_rows: int
    delta_rows: int
    breakdown: DefragBreakdown

    @property
    def total_time(self) -> float:
        """Total defragmentation time in ns."""
        return self.breakdown.total


class DefragExecutor:
    """Performs defragmentation functionally and models its cost."""

    #: Fixed overhead per run: thread creation + PIM unit activation
    #: (amortized away above ~10k transactions, §7.4).
    DEFAULT_FIXED_OVERHEAD = 50.0 * US
    #: Modelled CPU cost of traversing one version chain entry.
    CHAIN_ENTRY_COST = 20.0

    def __init__(
        self,
        storage: TableStorage,
        mvcc: MVCCManager,
        snapshots: SnapshotManager,
        bdw_cpu: float,
        bdw_pim: float,
        fixed_overhead: float = DEFAULT_FIXED_OVERHEAD,
    ) -> None:
        self.storage = storage
        self.mvcc = mvcc
        self.snapshots = snapshots
        self.bdw_cpu = bdw_cpu
        self.bdw_pim = bdw_pim
        self.fixed_overhead = fixed_overhead

    # ------------------------------------------------------------------
    # Strategy planning
    # ------------------------------------------------------------------
    def plan(self, strategy: str, p: float) -> Dict[int, str]:
        """Assign a movement strategy to every table part.

        For :data:`Strategy.HYBRID`, parts wider than the Eq. 3 break-even
        width move via PIM units; narrower parts via the CPU.
        """
        if strategy not in Strategy.ALL:
            raise DefragError(f"unknown strategy {strategy!r}")
        if strategy != Strategy.HYBRID:
            return {part.index: strategy for part in self.storage.layout.parts}
        threshold = pim_breakeven_width(
            METADATA_BYTES, max(p, 1e-9), self.bdw_cpu, self.bdw_pim
        )
        return {
            part.index: Strategy.PIM if part.row_width > threshold else Strategy.CPU
            for part in self.storage.layout.parts
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        ts: int,
        strategy: str = Strategy.HYBRID,
        include_fixed: bool = True,
    ) -> DefragResult:
        """Defragment the table: move rows, truncate chains, reset bitmaps.

        ``ts`` is the quiesced timestamp (all transactions up to it are
        committed; OLTP is paused). Returns the modelled cost.
        ``include_fixed`` charges the per-pass fixed overhead (thread
        creation + PIM activation); a multi-table pass pays it once.
        """
        n = self.mvcc.delta.high_water_rows
        updated = self.mvcc.updated_rows()
        chain_entries = self.mvcc.stale_version_count() + updated.size
        rows, deltas = self.mvcc.compact(updated)
        moved = rows.size
        if moved:
            # compact() only ever moves delta-resident heads back.
            self.storage.copy_rows(Region.DELTA, deltas, Region.DATA, rows)
        self.snapshots.rebuild_after_defrag(ts)

        p = moved / n if n else 0.0
        part_plan = self.plan(strategy, p)
        breakdown = self._cost(n, p, part_plan, chain_entries)
        if not include_fixed:
            breakdown.fixed = 0.0
        tel = telemetry.active()
        if tel.enabled:
            tel.counter("defrag.runs").inc()
            tel.counter("defrag.rows_moved").inc(moved)
            tel.counter("defrag.delta_rows_reclaimed").inc(n)
            tel.histogram("defrag.latency_ns").observe(breakdown.total)
            tel.record_span(
                "defrag.run",
                breakdown.total,
                {"strategy": strategy, "moved_rows": moved},
            )
        return DefragResult(
            strategy=strategy,
            moved_rows=moved,
            delta_rows=n,
            breakdown=breakdown,
        )

    def estimate(self, n: int, p: float, strategy: str = Strategy.HYBRID) -> DefragBreakdown:
        """Cost model only (no data movement) — used by sweeps."""
        part_plan = self.plan(strategy, p)
        chain_entries = int(n * p * 2)
        return self._cost(n, p, part_plan, chain_entries)

    def _cost(
        self, n: int, p: float, part_plan: Dict[int, str], chain_entries: int
    ) -> DefragBreakdown:
        """Sum the per-part Eq. 1 / Eq. 2 costs.

        Each part's movement pays its own metadata read (and, for the PIM
        strategy, its own broadcast) exactly as the equations are stated,
        which keeps the per-part Eq. 3 decision exact: the hybrid plan is
        never worse than either pure strategy.
        """
        breakdown = DefragBreakdown(fixed=self.fixed_overhead)
        if n == 0:
            return breakdown
        d = self.storage.rank.num_devices
        m = METADATA_BYTES
        breakdown.chain_traversal = chain_entries * self.CHAIN_ENTRY_COST
        for part in self.storage.layout.parts:
            w = part.row_width
            if part_plan[part.index] == Strategy.PIM:
                breakdown.metadata_read += m * n / self.bdw_cpu
                breakdown.broadcast += d * m * n / self.bdw_cpu + d * m * n / self.bdw_pim
                breakdown.copy_pim += 2 * n * p * d * w / self.bdw_pim
            else:
                breakdown.metadata_read += m * n / self.bdw_cpu
                breakdown.copy_cpu += 2 * n * p * d * w / self.bdw_cpu
        return breakdown
