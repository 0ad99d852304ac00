"""The sharded cluster: N engines, one router, one 2PC coordinator.

:class:`PushTapCluster` composes N independent :class:`~repro.core.
engine.PushTapEngine` instances (one simulated PIM server each) behind
a warehouse-partitioned :class:`~repro.cluster.router.ShardRouter`.
Single-shard transactions — the vast majority under TPC-C's ~1 %/15 %
remote rates — run unchanged on their home engine; cross-shard ones go
through the :class:`~repro.cluster.twopc.TwoPhaseCommit` coordinator.
Analytical queries scatter across every shard and gather additive
partials (:mod:`repro.cluster.gather`).

A bare engine runs as the 1-shard cluster ``PushTapCluster([engine],
engine.table_counts())``: the router never splits, the coordinator
never runs, the gather is free, and every simulated metric is the
engine's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigError, on_shard
from repro.olap.queries import QueryResult
from repro.oltp.engine import TxnContext, TxnResult
from repro.telemetry import registry as telemetry

from repro.cluster.gather import ClusterQueryResult, merge_rows
from repro.cluster.partition import build_shard, cluster_row_counts
from repro.cluster.router import ShardRouter
from repro.cluster.twopc import TwoPhaseCommit

__all__ = ["ClusterTxnResult", "PushTapCluster"]


def _check_interconnect(interconnect_ns: float) -> float:
    """``interconnect_ns`` as a float; ``ConfigError`` unless finite and >= 0."""
    value = float(interconnect_ns)
    if not (math.isfinite(value) and value >= 0.0):
        raise ConfigError(f"interconnect_ns must be finite and >= 0, got {interconnect_ns!r}")
    return value


@dataclass
class ClusterTxnResult:
    """Outcome of one transaction routed through the cluster."""

    committed: bool
    #: Client-observed latency (ns): the plain execution time for a
    #: single-shard transaction; execution + interconnect + timeouts for
    #: a cross-shard one.
    latency: float
    home: int
    shards: Tuple[int, ...]
    cross_shard: bool
    abort_cause: Optional[str] = None
    per_shard: Dict[int, TxnResult] = field(default_factory=dict)


class PushTapCluster:
    """N shard engines behind a warehouse-partitioned router."""

    def __init__(
        self,
        engines,
        counts: Dict[str, int],
        interconnect_ns: float = 500.0,
    ) -> None:
        if not engines:
            raise ConfigError("a cluster needs at least one shard engine")
        self.engines = list(engines)
        self.num_shards = len(self.engines)
        #: The *global* row counts the shards were filtered from — the
        #: workload layer builds its drivers over these, not over any
        #: single shard's filtered row counts.
        self.counts = dict(counts)
        self.warehouses = int(counts["warehouse"])
        self.interconnect_ns = _check_interconnect(interconnect_ns)
        self.router = ShardRouter(self.num_shards, self.warehouses)
        self.twopc = TwoPhaseCommit(self.engines, self.interconnect_ns)
        #: Accumulated scatter-gather interconnect time (ns).
        self.gather_time = 0.0
        self.queries_run = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        shards: int = 2,
        scale: float = 1e-4,
        counts: Optional[Dict[str, int]] = None,
        interconnect_ns: float = 500.0,
        **build_kwargs,
    ) -> "PushTapCluster":
        """Build an N-shard cluster over one global generator stream.

        ``counts`` overrides the :func:`~repro.cluster.partition.
        cluster_row_counts` derivation (the scaling bench pins one count
        set across every shard-count cell); all other keyword arguments
        pass through to :meth:`PushTapEngine.build` for every shard.
        """
        if type(shards) is not int or shards < 1:
            raise ConfigError(f"shards must be an int >= 1, got {shards!r}")
        _check_interconnect(interconnect_ns)
        counts = dict(counts) if counts is not None else cluster_row_counts(
            scale, shards
        )
        engines = [
            build_shard(shard, shards, counts, **build_kwargs)
            for shard in range(shards)
        ]
        return cls(engines, counts, interconnect_ns=interconnect_ns)

    # ------------------------------------------------------------------
    # OLTP path
    # ------------------------------------------------------------------
    def execute_transaction(
        self, txn: Callable[[TxnContext], None]
    ) -> ClusterTxnResult:
        """Route and run one transaction (2PC when it spans shards)."""
        shards = self.router.involved_shards(txn)
        if len(shards) == 1:
            home = shards[0]
            result = on_shard(home, self.engines[home].execute_transaction, txn)
            return ClusterTxnResult(
                committed=not result.aborted,
                latency=result.total_time,
                home=home,
                shards=(home,),
                cross_shard=False,
                abort_cause="local_abort" if result.aborted else None,
                per_shard={home: result},
            )
        home = self.router.home_shard(txn)
        # Participants defragment *before* entering the prepare phase —
        # a defrag pause must never land between prepare and decision
        # while the participant holds cross-shard locks.
        for shard in shards:
            engine = self.engines[shard]
            if engine.defrag_due():
                on_shard(shard, engine.defragment)
        sub_txns = self.router.split(txn)
        outcome = self.twopc.execute(home, sub_txns)
        return ClusterTxnResult(
            committed=outcome.committed,
            latency=outcome.latency,
            home=home,
            shards=tuple(shards),
            cross_shard=True,
            abort_cause=outcome.abort_cause,
            per_shard=outcome.per_shard,
        )

    # ------------------------------------------------------------------
    # OLAP path
    # ------------------------------------------------------------------
    def query(self, name: str) -> ClusterQueryResult:
        """Scatter ``name`` across every shard and gather the partials."""
        self.queries_run += 1
        if self.num_shards == 1:
            result = on_shard(0, self.engines[0].query, name)
            return ClusterQueryResult(
                name, rows=result.rows, shard_results=[result], gather_time=0.0
            )
        shard_results: list[QueryResult] = [
            on_shard(shard, engine.query, name) for shard, engine in enumerate(self.engines)
        ]
        rows = merge_rows(name, [r.rows for r in shard_results])
        gather = (self.num_shards - 1) * self.interconnect_ns
        self.gather_time += gather
        tel = telemetry.active()
        if tel.enabled:
            tel.counter("cluster.olap.scatter_queries").inc()
            tel.record_span(
                "cluster.gather", gather, {"query": name, "shards": self.num_shards}
            )
        return ClusterQueryResult(
            name, rows=rows, shard_results=shard_results, gather_time=gather
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def shard_busy_time(self, shard: int) -> float:
        """One shard's total busy time (OLTP + OLAP + defrag, ns)."""
        stats = self.engines[shard].stats
        return stats.oltp_time + stats.olap_time + stats.defrag_time

    @property
    def coordination_time(self) -> float:
        """Serial cluster-level time owned by no shard (2PC + gather)."""
        return self.twopc.coordination_time + self.gather_time

    @property
    def simulated_time(self) -> float:
        """Cluster makespan: slowest shard plus serial coordination."""
        busiest = max(
            self.shard_busy_time(s) for s in range(self.num_shards)
        )
        return busiest + self.coordination_time
