"""Analytic PUSHtap query model for full-scale extrapolation (Fig. 9b/10/11).

Mirrors :class:`repro.baselines.multi_instance.MultiInstanceModel` for the
PUSHtap single-instance design: instead of rebuilding a replica, a query
pays (1) an incremental bitmap **snapshot** over the transactions
committed since the last snapshot, (2) its share of the periodic
**defragmentation**, and (3) a scan slowed by the layout's PIM efficiency
and by **fragmentation** — delta-region rows accumulated since the last
defragmentation are streamed too, because sub-8 B holes cannot be skipped
(§7.4, Fig. 11b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.defrag import comm_cpu_time, comm_pim_time, pim_breakeven_width
from repro.errors import QueryError
from repro.mvcc.metadata import METADATA_BYTES
from repro.olap.cost import column_scan_cost
from repro.units import US

__all__ = ["PushTapQueryModel"]

#: Modelled CPU bytes to update bitmap copies per replayed log record.
_BITMAP_BYTES_PER_RECORD = 16


@dataclass(frozen=True)
class PushTapQueryModel:
    """Analytic PUSHtap OLAP cost at arbitrary scale.

    ``pim_efficiency`` is the layout's effective PIM bandwidth (0.974 at
    th = 0.6, §7.2); ``part_widths`` are the row widths of the scanned
    tables' parts (drives the hybrid defragmentation split);
    ``writes_per_txn``/``avg_row_bytes`` characterize the OLTP mix.
    """

    config: SystemConfig
    pim_efficiency: float = 0.944
    writes_per_txn: float = 5.0
    avg_row_bytes: int = 52
    part_widths: Tuple[int, ...] = (32, 8, 8, 6, 4, 2)
    defrag_period: int = 10_000
    defrag_fixed_overhead: float = 50.0 * US
    #: Per-transaction version metadata the query-time snapshot must still
    #: touch (chains created since the last analytical query) — the slowly
    #: growing consistency component of Fig. 9b.
    lazy_metadata_bytes_per_txn: float = 10.0

    def snapshot_time(self, pending_txns: int) -> float:
        """Incremental snapshot over ``pending_txns`` unreplayed txns."""
        if pending_txns < 0:
            raise QueryError("pending_txns must be non-negative")
        records = pending_txns * self.writes_per_txn
        cpu_bytes = records * (METADATA_BYTES + _BITMAP_BYTES_PER_RECORD)
        return cpu_bytes / self.config.total_cpu_bandwidth

    def defrag_time(self, num_txns: int, strategy: str = "hybrid") -> float:
        """One defragmentation after ``num_txns`` transactions (§5.3)."""
        n = num_txns * self.writes_per_txn
        if n <= 0:
            return self.defrag_fixed_overhead
        p = 0.9  # most delta rows are newest versions at defrag time
        d = self.config.geometry.devices_per_rank
        bdw_cpu = self.config.total_cpu_bandwidth
        bdw_pim = self.config.total_pim_bandwidth
        threshold = pim_breakeven_width(METADATA_BYTES, p, bdw_cpu, bdw_pim)
        total = self.defrag_fixed_overhead
        share = n / len(self.part_widths)
        for width in self.part_widths:
            use_pim = (
                strategy == "pim"
                or (strategy == "hybrid" and width > threshold)
            )
            if use_pim:
                cost = comm_pim_time(
                    METADATA_BYTES, int(share), p, d, width, bdw_cpu, bdw_pim
                )
            else:
                cost = comm_cpu_time(METADATA_BYTES, int(share), p, d, width, bdw_cpu)
            total += cost
        return total

    def query_consistency(self, num_txns: int) -> float:
        """Consistency work charged to one query after ``num_txns`` (Fig. 9b).

        Periodic defragmentation runs during the OLTP phase (its cost
        lands on transactions, Fig. 11a); the query itself pays the
        incremental snapshot over the pending window (at most one
        defragmentation period), at most one defragmentation, and a
        linearly growing metadata-touch component for the version chains
        accumulated since the last analytical query.
        """
        pending = min(num_txns, self.defrag_period)
        lazy = num_txns * self.lazy_metadata_bytes_per_txn / self.config.total_cpu_bandwidth
        return self.snapshot_time(pending) + self.defrag_time(pending) + lazy

    def scan_time(
        self, columns: Sequence[Tuple[int, int]], delta_fraction: float = 0.0
    ) -> float:
        """Serial column scans at the layout's PIM efficiency.

        ``delta_fraction`` inflates the scan by the un-defragmented delta
        rows that must be streamed alongside live data (Fig. 11b).
        """
        if delta_fraction < 0:
            raise QueryError("delta_fraction must be non-negative")
        total = 0.0
        for rows, width in columns:
            effective_rows = int(rows * (1.0 + delta_fraction))
            footprint = max(width, int(round(width / self.pim_efficiency)))
            total += column_scan_cost(
                self.config, effective_rows, width, part_row_width=footprint
            ).total_time
        return total

    def pending_delta_fraction(self, num_txns: int, base_rows: int) -> float:
        """Un-defragmented delta rows relative to the scanned rows."""
        pending = min(num_txns, self.defrag_period)
        return pending * self.writes_per_txn / max(base_rows, 1)

    def query_time(
        self, columns: Sequence[Tuple[int, int]], num_txns: int
    ) -> float:
        """End-to-end query time after ``num_txns`` transactions."""
        base_rows = max(sum(rows for rows, _ in columns), 1)
        delta_fraction = self.pending_delta_fraction(num_txns, base_rows)
        return self.query_consistency(num_txns) + self.scan_time(
            columns, delta_fraction
        )
