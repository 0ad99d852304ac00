"""The batch HTAP driver (§7.3.3's measurement methodology), 1 to N shards.

:class:`ClusterWorkload` runs the interval loop — ``txns_per_query``
transactions, then one analytical query — over a :class:`~repro.cluster.
cluster.PushTapCluster` and reports throughput in the paper's units,
tpmC and QphH, computed over *simulated* time, so the numbers reflect
the modelled system rather than the Python host. A bare engine runs as
the one-shard cluster ``PushTapCluster([engine], engine.table_counts())``:
the router never splits, the coordinator never runs and the gather is
free, so the report is the engine's own.

Each serving tenant owns a seeded TPC-C driver built over the *global*
row counts (per-tenant seeds and order-id offset/stride follow the serve
layer's derivation) with warehouse affinity pinning its customers to one
shard, so the shards share the load evenly while remote payments and
order lines still cross shards at the TPC-C rates. A single tenant gets
one plain driver seeded with ``seed`` (no affinity), the same driver
:meth:`~repro.core.engine.PushTapEngine.make_driver` builds.

The report's simulated clock is the cluster makespan: shards run in
parallel (each one a serial engine, like the single-instance model), so
elapsed time is the busiest shard's busy time plus the serial
coordination work (2PC interconnect + scatter-gather) that belongs to
no shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.faults import injector as faults
from repro.oltp.tpcc import TPCCDriver
from repro.serve.slo import SLOTargets, quantiles
from repro.telemetry import registry as telemetry
from repro.telemetry.metrics import Histogram
from repro.units import qphh, tpmc
from repro.workloads.driver import _derive_seed

from repro.cluster.cluster import PushTapCluster
from repro.cluster.partition import shard_warehouses

__all__ = ["ShardReport", "ClusterReport", "ClusterWorkload"]


@dataclass
class ShardReport:
    """One shard's share of a cluster run."""

    shard: int
    warehouses: List[int]
    transactions: int = 0
    defrag_runs: int = 0
    oltp_time: float = 0.0
    olap_time: float = 0.0
    defrag_time: float = 0.0
    #: Client latencies of transactions *homed* on this shard (ns).
    oltp_latency: Histogram = field(default=None)  # type: ignore[assignment]
    slo_violations: int = 0

    def __post_init__(self) -> None:
        if self.oltp_latency is None:
            self.oltp_latency = Histogram(
                f"cluster.shard{self.shard}.oltp.latency_ns"
            )

    @property
    def busy_time(self) -> float:
        """This shard's serial busy time (ns)."""
        return self.oltp_time + self.olap_time + self.defrag_time

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable shard summary."""
        return {
            "shard": self.shard,
            "warehouses": len(self.warehouses),
            "transactions": self.transactions,
            "defrag_runs": self.defrag_runs,
            "oltp_time_ns": self.oltp_time,
            "olap_time_ns": self.olap_time,
            "defrag_time_ns": self.defrag_time,
            "busy_time_ns": self.busy_time,
            "oltp": quantiles(self.oltp_latency),
            "slo_violations": self.slo_violations,
        }


@dataclass
class ClusterReport:
    """Throughput, latency, and cross-shard summary of one cluster run."""

    num_shards: int = 1
    tenants: int = 1
    remote_fraction: float = 1.0
    transactions: int = 0
    aborted: int = 0
    queries: int = 0
    coordination_time: float = 0.0
    per_shard: List[ShardReport] = field(default_factory=list)
    #: 2PC coordinator counters over the run.
    cross_shard_attempted: int = 0
    cross_shard_committed: int = 0
    cross_shard_aborted: int = 0
    aborts_by_cause: Dict[str, int] = field(default_factory=dict)
    #: Remote-traffic counters summed over the tenants' drivers.
    payments: int = 0
    remote_payments: int = 0
    new_orders: int = 0
    remote_new_orders: int = 0
    order_lines: int = 0
    remote_order_lines: int = 0
    tenant_shards: Dict[int, int] = field(default_factory=dict)
    query_histograms: Dict[str, Histogram] = field(default_factory=dict)
    txn_histogram: Histogram = field(
        default_factory=lambda: Histogram("workload.txn.latency_ns")
    )

    @property
    def committed(self) -> int:
        """Transactions that committed (executed minus aborted)."""
        return self.transactions - self.aborted

    @property
    def oltp_time(self) -> float:
        """Total OLTP execution time across every shard (ns)."""
        return sum(s.oltp_time for s in self.per_shard)

    @property
    def olap_time(self) -> float:
        """Total OLAP scan time across every shard (ns)."""
        return sum(s.olap_time for s in self.per_shard)

    @property
    def defrag_time(self) -> float:
        """Total defragmentation time across every shard (ns)."""
        return sum(s.defrag_time for s in self.per_shard)

    @property
    def simulated_time(self) -> float:
        """Cluster makespan: busiest shard plus serial coordination (ns)."""
        busiest = max((s.busy_time for s in self.per_shard), default=0.0)
        return busiest + self.coordination_time

    @property
    def oltp_tpmc(self) -> float:
        """Committed transactions per simulated minute."""
        return tpmc(self.committed, self.simulated_time)

    @property
    def olap_qphh(self) -> float:
        """Scatter-gather queries per simulated hour."""
        return qphh(self.queries, self.simulated_time)

    @property
    def cross_shard_abort_rate(self) -> float:
        """Aborted fraction of attempted cross-shard transactions."""
        if self.cross_shard_attempted == 0:
            return 0.0
        return self.cross_shard_aborted / self.cross_shard_attempted

    def query_histogram(self, name: str) -> Histogram:
        """The latency histogram of one query type (registered lazily)."""
        hist = self.query_histograms.get(name)
        if hist is None:
            hist = self.query_histograms[name] = Histogram(
                f"workload.query.{name}.latency_ns"
            )
        return hist

    def observe_query(self, name: str, latency: float) -> None:
        """Record one scatter-gather query latency sample."""
        self.query_histogram(name).observe(latency)

    def observe_txn(self, latency: float) -> None:
        """Record one transaction's client latency sample (ns)."""
        self.txn_histogram.observe(latency)
        tel = telemetry.active()
        if tel.enabled:
            tel.histogram("workload.txn.latency_ns").observe(latency)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable run summary (the cluster bench's cell)."""
        return {
            "shards": self.num_shards,
            "tenants": self.tenants,
            "remote_fraction": self.remote_fraction,
            "transactions": self.transactions,
            "committed": self.committed,
            "aborted": self.aborted,
            "queries": self.queries,
            "oltp_time_ns": self.oltp_time,
            "olap_time_ns": self.olap_time,
            "defrag_time_ns": self.defrag_time,
            "coordination_time_ns": self.coordination_time,
            "simulated_time_ns": self.simulated_time,
            "oltp_tpmc": self.oltp_tpmc,
            "olap_qphh": self.olap_qphh,
            "cross_shard": {
                "attempted": self.cross_shard_attempted,
                "committed": self.cross_shard_committed,
                "aborted": self.cross_shard_aborted,
                "abort_rate": self.cross_shard_abort_rate,
                "aborts_by_cause": dict(sorted(self.aborts_by_cause.items())),
            },
            "remote": {
                "payments": self.payments,
                "remote_payments": self.remote_payments,
                "new_orders": self.new_orders,
                "remote_new_orders": self.remote_new_orders,
                "order_lines": self.order_lines,
                "remote_order_lines": self.remote_order_lines,
            },
            "tenant_shards": {str(t): s for t, s in sorted(self.tenant_shards.items())},
            "per_shard": [s.as_dict() for s in self.per_shard],
        }


class ClusterWorkload:
    """Drives a cluster with per-tenant TPC-C streams plus OLAP fanout.

    ``txns_per_query`` sets the interleaving (the paper's query scheduler
    issues analytical queries between transaction batches); ``queries``
    cycles through the named analytical queries.
    """

    def __init__(
        self,
        cluster: PushTapCluster,
        txns_per_query: int = 50,
        queries: Sequence[str] = ("Q1", "Q6", "Q9"),
        seed: int = 11,
        payment_fraction: float = 0.5,
        delivery_fraction: float = 0.0,
        remote_fraction: float = 1.0,
        tenants: Optional[int] = None,
        slo_targets: Optional[SLOTargets] = None,
        invariant_checkers: Sequence = (),
        homogeneous_tenants: bool = False,
        warehouse_groups: Optional[int] = None,
        jobs: int = 1,
    ) -> None:
        if txns_per_query < 0:
            raise ConfigError("txns_per_query must be non-negative")
        if not queries:
            raise ConfigError("at least one analytical query is required")
        self.cluster = cluster
        #: Worker count for :meth:`run`; > 1 executes shard sub-streams
        #: on a process pool with a deterministic merge (see
        #: :mod:`repro.parallel`).
        self.jobs = int(jobs)
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        #: Per-shard worker checker summaries of the last parallel run.
        self.worker_invariants: List[Dict[str, object]] = []
        self.txns_per_query = txns_per_query
        self.queries = list(queries)
        self.tenants = cluster.num_shards if tenants is None else int(tenants)
        if self.tenants < 1:
            raise ConfigError("tenants must be >= 1")
        self.remote_fraction = float(remote_fraction)
        self.slo_targets = slo_targets or SLOTargets()
        self.invariant_checkers = list(invariant_checkers)
        counts = cluster.counts
        #: Tenant → home shard (round-robin; with tenants == shards each
        #: shard serves exactly one tenant).
        self.tenant_shards: Dict[int, int] = {
            t: t % cluster.num_shards for t in range(self.tenants)
        }
        # Tenant → warehouse-affinity group. Defaults to the shard
        # partition, but the scaling bench pins it to the *maximum*
        # shard count across its cells so every cell draws literally the
        # same per-tenant streams (the affinity path consumes RNG
        # differently from the full-set path, so grouping by the current
        # cell's shard count would change the transaction mix between
        # cells and poison the speedup comparison).
        groups = cluster.num_shards if warehouse_groups is None else int(
            warehouse_groups
        )
        if groups < 1 or groups % cluster.num_shards != 0:
            raise ConfigError(
                "warehouse_groups must be a positive multiple of the shard "
                f"count (got {groups} over {cluster.num_shards} shards)"
            )
        if cluster.warehouses < groups:
            raise ConfigError(
                f"{cluster.warehouses} warehouse(s) cannot cover "
                f"{groups} affinity groups"
            )
        if self.tenants == 1:
            # One tenant: make_driver's construction (direct seed, no
            # affinity). The TPCCDriver constructor validates the mix.
            self.drivers = [
                TPCCDriver(
                    counts,
                    seed=seed,
                    payment_fraction=payment_fraction,
                    delivery_fraction=delivery_fraction,
                    remote_fraction=remote_fraction,
                )
            ]
        else:
            # Default: per-tenant independent streams (the serve layer's
            # derivation). ``homogeneous_tenants`` gives every tenant the
            # *same* mix sequence over its own warehouse set and order-id
            # stripe — the scaling bench uses it so the measured speedup
            # isolates partitioning overhead from client-mix variance.
            self.drivers = [
                TPCCDriver(
                    counts,
                    seed=seed
                    if homogeneous_tenants
                    else _derive_seed(seed, f"tenant{t}.workload"),
                    payment_fraction=payment_fraction,
                    delivery_fraction=delivery_fraction,
                    o_id_offset=t,
                    o_id_stride=self.tenants,
                    remote_fraction=remote_fraction,
                    home_warehouses=shard_warehouses(
                        t % groups, groups, counts["warehouse"]
                    ),
                )
                for t in range(self.tenants)
            ]
        self._query_cursor = 0
        self._txn_cursor = 0

    def _maybe_check(self, force: bool = False) -> None:
        """Run the invariant checkers at a safe point.

        Checks run when fault injection reports pending (injected) faults
        since the last check, or unconditionally with ``force`` (interval
        boundaries).
        """
        if not self.invariant_checkers:
            return
        pending = faults.active().take_pending_checks()
        if pending or force:
            for checker in self.invariant_checkers:
                checker.check()

    def run(self, num_queries: int) -> ClusterReport:
        """Run ``num_queries`` query intervals; returns the report.

        With ``jobs > 1`` the shard sub-streams execute on a process
        pool and are merged back in sequential order — the report,
        histograms and outcome logs are byte-identical to ``jobs=1``.
        Telemetry records only in the in-process ``jobs=1`` loop; under
        ``jobs > 1`` an enabled registry raises ``ConfigError`` before
        any driver moves (see :mod:`repro.parallel` for every
        precondition enforced).
        """
        cluster = self.cluster
        report = ClusterReport(
            num_shards=cluster.num_shards,
            tenants=self.tenants,
            remote_fraction=self.remote_fraction,
            tenant_shards=dict(self.tenant_shards),
            per_shard=[
                ShardReport(
                    shard=s,
                    warehouses=shard_warehouses(
                        s, cluster.num_shards, cluster.warehouses
                    ),
                )
                for s in range(cluster.num_shards)
            ],
        )
        tel = telemetry.active()
        stats_before = [
            (
                e.stats.transactions,
                e.stats.defrag_runs,
                e.stats.oltp_time,
                e.stats.olap_time,
                e.stats.defrag_time,
            )
            for e in cluster.engines
        ]
        twopc = cluster.twopc
        twopc_before = (twopc.attempted, twopc.committed, twopc.aborted)
        causes_before = dict(twopc.aborts_by_cause)
        coordination_before = cluster.coordination_time
        if self.jobs > 1:
            # Parallel shard execution with a deterministic merge. The
            # merge fills the report's interval-loop accounting and the
            # coordinator-side cluster/2PC state; the shared delta
            # bookkeeping below then applies to both paths.
            from repro.parallel import run_parallel_cluster_workload

            run_parallel_cluster_workload(self, num_queries, self.jobs, report)
        else:
            for interval in range(num_queries):
                name = self.queries[self._query_cursor % len(self.queries)]
                self._query_cursor += 1
                with tel.span("workload.interval", {"interval": interval, "query": name}):
                    for _ in range(self.txns_per_query):
                        tenant = self._txn_cursor % self.tenants
                        self._txn_cursor += 1
                        driver = self.drivers[tenant]
                        txn = driver.next_transaction()
                        result = cluster.execute_transaction(txn)
                        report.transactions += 1
                        if not result.committed:
                            report.aborted += 1
                            driver.note_abort(txn)
                        report.observe_txn(result.latency)
                        home = report.per_shard[result.home]
                        home.oltp_latency.observe(result.latency)
                        if result.latency > self.slo_targets.oltp_ns:
                            home.slo_violations += 1
                        self._maybe_check()
                    query = cluster.query(name)
                    report.queries += 1
                    report.observe_query(name, query.total_time)
                    self._maybe_check(force=True)
        for shard, engine in enumerate(cluster.engines):
            txns0, runs0, oltp0, olap0, defrag0 = stats_before[shard]
            entry = report.per_shard[shard]
            entry.transactions = engine.stats.transactions - txns0
            entry.defrag_runs = engine.stats.defrag_runs - runs0
            entry.oltp_time = engine.stats.oltp_time - oltp0
            entry.olap_time = engine.stats.olap_time - olap0
            entry.defrag_time = engine.stats.defrag_time - defrag0
        report.coordination_time = cluster.coordination_time - coordination_before
        report.cross_shard_attempted = twopc.attempted - twopc_before[0]
        report.cross_shard_committed = twopc.committed - twopc_before[1]
        report.cross_shard_aborted = twopc.aborted - twopc_before[2]
        report.aborts_by_cause = {
            cause: count - causes_before.get(cause, 0)
            for cause, count in twopc.aborts_by_cause.items()
            if count - causes_before.get(cause, 0)
        }
        for driver in self.drivers:
            report.payments += driver.payments
            report.remote_payments += driver.remote_payments
            report.new_orders += driver.new_orders
            report.remote_new_orders += driver.remote_new_orders
            report.order_lines += driver.order_lines
            report.remote_order_lines += driver.remote_order_lines
        if tel.enabled:
            tel.counter("workload.intervals").inc(num_queries)
            tel.gauge("workload.oltp_tpmc").set(report.oltp_tpmc)
            tel.gauge("workload.olap_qphh").set(report.olap_qphh)
        return report
