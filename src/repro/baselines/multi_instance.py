"""The multi-instance (MI) PIM-based HTAP baseline (§7.3.2).

MI adapts Polynesia [6] to the same general-purpose DIMM-based PIM
substrate as PUSHtap: a row-store primary instance in CPU memory plus a
column-store replica in PIM memory. Transactions append to a log; before
an analytical query the replica must be **rebuilt** for freshness:

1. the CPU transfers all new-versioned rows and their metadata to the
   DRAM banks holding the replica, then
2. general-purpose PIM units merge the metadata and copy the new-versioned
   data into the columns.

The analytical scan itself then runs at ideal column-store efficiency.
The rebuild is what costs MI its OLAP performance and freshness — the
effect Fig. 9b and Fig. 10 quantify.

``MI (HBM)`` (the paper's comparison against original Polynesia) uses a
dedicated rebuild accelerator; per §7.3.2 the paper estimates its cost
*relative to CPU-based consistency*, which :class:`MultiInstanceModel`
exposes via ``accelerator_speedup``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.config import SystemConfig
from repro.errors import QueryError
from repro.mvcc.metadata import METADATA_BYTES
from repro.olap.cost import column_scan_cost
from repro.units import US

__all__ = ["RebuildCost", "MultiInstanceModel"]


@dataclass(frozen=True)
class RebuildCost:
    """Breakdown of one replica rebuild."""

    fixed: float
    transfer_time: float
    merge_time: float

    @property
    def total(self) -> float:
        """Total rebuild time in ns."""
        return self.fixed + self.transfer_time + self.merge_time


@dataclass(frozen=True)
class MultiInstanceModel:
    """Analytic model of the MI baseline.

    ``avg_row_bytes`` is the average updated-row size;
    ``writes_per_txn`` the average row writes per transaction;
    ``accelerator_speedup`` > 1 models the dedicated rebuild hardware of
    the HBM variant (1.0 = general-purpose PIM units, the DIMM variant).
    """

    config: SystemConfig
    avg_row_bytes: int = 130
    writes_per_txn: float = 5.0
    fixed_overhead: float = 50.0 * US
    accelerator_speedup: float = 1.0

    def rebuild_cost(self, num_txns: int) -> RebuildCost:
        """Rebuild after ``num_txns`` transactions touched the primary."""
        if num_txns < 0:
            raise QueryError("num_txns must be non-negative")
        rows = num_txns * self.writes_per_txn
        payload = rows * (self.avg_row_bytes + METADATA_BYTES)
        transfer = payload / self.config.total_cpu_bandwidth
        merge = rows * (METADATA_BYTES + 2 * self.avg_row_bytes) / (
            self.config.total_pim_bandwidth
        )
        speedup = max(self.accelerator_speedup, 1e-9)
        return RebuildCost(
            fixed=self.fixed_overhead,
            transfer_time=transfer / speedup,
            merge_time=merge / speedup,
        )

    def scan_time(self, columns: Sequence[Tuple[int, int]]) -> float:
        """Replica scan time: columns are compact in the replica."""
        return sum(
            column_scan_cost(self.config, rows, width).total_time
            for rows, width in columns
        )

    def log_bytes_per_txn(self) -> float:
        """CPU log/replication traffic each transaction adds."""
        return self.writes_per_txn * (self.avg_row_bytes + METADATA_BYTES)
