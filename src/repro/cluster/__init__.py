"""Sharded multi-engine cluster: router, 2PC, scatter-gather OLAP.

The cluster layer composes N independent :class:`~repro.core.engine.
PushTapEngine` instances — one simulated PIM server each — into a single
warehouse-partitioned TPC-C system:

- :mod:`repro.cluster.partition` — warehouse → shard placement and
  per-shard row filtering over one global generator stream;
- :mod:`repro.cluster.router` — routes each transaction to the shards
  it touches and splits cross-shard ones into per-shard sub-closures;
- :mod:`repro.cluster.twopc` — deterministic simulated-time two-phase
  commit (presumed abort) over the engines' prepare/commit interface;
- :mod:`repro.cluster.gather` — scatter-gather merge of Q1/Q6/Q9
  partials, bit-identical to one engine scanning the union of the data;
- :mod:`repro.cluster.cluster` — the :class:`PushTapCluster` facade;
- :mod:`repro.cluster.workload` — the batch HTAP driver (1 to N shards;
  a bare engine runs as a 1-shard cluster) and its :class:`ClusterReport`.

The 2PC fault sweep is the ``cluster`` workload of
:mod:`repro.faults.sweep`.
"""

from repro.cluster.cluster import ClusterTxnResult, PushTapCluster
from repro.cluster.gather import (
    MERGEABLE_QUERIES,
    ClusterQueryResult,
    merge_rows,
)
from repro.cluster.partition import (
    build_shard,
    cluster_row_counts,
    partition_row_filter,
    shard_of,
    shard_warehouses,
)
from repro.cluster.router import ShardRouter
from repro.cluster.twopc import TwoPhaseCommit, TwoPhaseOutcome
from repro.cluster.workload import ClusterReport, ClusterWorkload, ShardReport

__all__ = [
    "MERGEABLE_QUERIES",
    "ClusterQueryResult",
    "ClusterReport",
    "ClusterTxnResult",
    "ClusterWorkload",
    "PushTapCluster",
    "ShardReport",
    "ShardRouter",
    "TwoPhaseCommit",
    "TwoPhaseOutcome",
    "build_shard",
    "cluster_row_counts",
    "merge_rows",
    "partition_row_filter",
    "shard_of",
    "shard_warehouses",
]
