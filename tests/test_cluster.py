"""The sharded cluster: partitioning, routing, 2PC, scatter-gather.

The two load-bearing properties pinned here bit-for-bit:

* a bare engine driven as a 1-shard cluster equals the single-engine
  loop the batch driver replaced (``OracleMixedWorkload``) on every
  simulated metric, clean and under injected faults;
* an N-shard cluster's scatter-gather Q1/Q6/Q9 results equal a single
  merged engine executing the same (unsplit) transaction stream —
  including cross-shard 2PC histories and a mid-history defrag of one
  shard.
"""

import pytest

from repro.cluster import (
    ClusterWorkload,
    PushTapCluster,
    ShardRouter,
    cluster_row_counts,
    merge_rows,
    partition_row_filter,
    shard_of,
    shard_warehouses,
)
from repro.cluster.partition import PARTITION_COLUMNS
from repro.core.engine import PushTapEngine
from repro.errors import ConfigError, QueryError, TransactionError
from repro.faults.injector import FaultInjector, deactivate, install
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import TWOPC_HOOKS, TWOPC_LOST_PREPARE, FaultPlan, FaultRates
from repro.faults.sweep import run_fault_sweep
from repro.telemetry import registry as telemetry
from repro.workloads.chbench import row_counts
from repro.oltp.tpcc import TPCCDriver
from repro.workloads.driver import _derive_seed
from repro.workloads.tpcc_gen import generate_table
from tests.test_vectorized_equivalence import OracleMixedWorkload

SCALE = 2e-5
ENGINE_KWARGS = dict(seed=7, block_rows=256, defrag_period=200)


def _mirrored_drivers(
    counts, shards, tenants, seed=11, remote_fraction=4.0, affinity=True,
    delivery_fraction=0.0,
):
    """Two identical per-tenant driver lists (cluster vs merged engine)."""

    def make():
        return [
            TPCCDriver(
                counts,
                seed=_derive_seed(seed, f"tenant{t}.workload"),
                o_id_offset=t,
                o_id_stride=tenants,
                remote_fraction=remote_fraction,
                delivery_fraction=delivery_fraction,
                home_warehouses=shard_warehouses(
                    t % shards, shards, counts["warehouse"]
                ) if affinity else None,
            )
            for t in range(tenants)
        ]

    return make(), make()


class TestPartition:
    def test_single_shard_counts_unchanged(self):
        """N == 1 must reproduce row_counts exactly (bit-identity)."""
        assert cluster_row_counts(SCALE, 1) == row_counts(SCALE)

    def test_multi_shard_counts_divisible(self):
        counts = cluster_row_counts(SCALE, 4)
        assert counts["warehouse"] % 4 == 0
        assert counts["district"] == 10 * counts["warehouse"]
        assert counts["item"] == counts["stock"]

    def test_shard_of_round_robin(self):
        assert [shard_of(w, 2) for w in (1, 2, 3, 4)] == [0, 1, 0, 1]
        assert shard_warehouses(1, 2, 4) == [2, 4]

    def test_row_filter_is_shard_of_over_a_block(self):
        """The block mask keeps the rows the per-row rule assigns to the
        shard; the replicated ITEM table is kept whole (no mask)."""
        counts = cluster_row_counts(SCALE, 4)
        for table, column in PARTITION_COLUMNS.items():
            block = next(generate_table(table, counts, 7, 256))
            masks = [partition_row_filter(s, 4)(table, block) for s in range(4)]
            if column is None:
                assert masks == [None] * 4
                continue
            owners = [shard_of(w, 4) for w in block[column].tolist()]
            for shard, mask in enumerate(masks):
                assert mask.tolist() == [owner == shard for owner in owners], table

    def test_shards_partition_all_rows(self):
        """Every shard-filtered row set unions back to the global counts."""
        counts = cluster_row_counts(SCALE, 2)
        cluster = PushTapCluster.build(shards=2, counts=counts, **ENGINE_KWARGS)
        for table, total in counts.items():
            if table == "item":
                # ITEM is replicated, not partitioned.
                for engine in cluster.engines:
                    assert engine.table(table).num_rows == total
                continue
            per_shard = [e.table(table).num_rows for e in cluster.engines]
            assert sum(per_shard) == total, table
            assert all(n > 0 for n in per_shard), table

    def test_more_shards_than_warehouses_rejected(self):
        with pytest.raises(ConfigError):
            PushTapCluster.build(
                shards=4, counts=row_counts(SCALE), **ENGINE_KWARGS
            )


#: Every field the single-engine report had, compared exactly.
_REPORT_FIELDS = (
    "transactions", "aborted", "queries", "oltp_time", "olap_time",
    "defrag_time", "simulated_time", "oltp_tpmc", "olap_qphh",
    "remote_fraction", "payments", "remote_payments", "new_orders",
    "remote_new_orders", "order_lines", "remote_order_lines",
)


def _one_shard(engine, **kwargs):
    """A bare engine through the batch driver, as a one-shard cluster."""
    return ClusterWorkload(PushTapCluster([engine], engine.table_counts()), **kwargs)


def _assert_same_report(clustered, bare):
    for name in _REPORT_FIELDS:
        assert getattr(clustered, name) == getattr(bare, name), name
    assert clustered.txn_histogram.samples == bare.txn_histogram.samples
    assert set(clustered.query_histograms) == set(bare.query_histograms)
    for name, hist in bare.query_histograms.items():
        assert clustered.query_histograms[name].samples == hist.samples
    assert clustered.cross_shard_attempted == 0
    assert clustered.coordination_time == 0.0


class TestSingleShardIdentity:
    def test_report_matches_mixed_workload(self):
        engine = PushTapEngine.build(scale=SCALE, **ENGINE_KWARGS)
        bare = OracleMixedWorkload(engine, txns_per_query=30, seed=11).run(4)
        engine = PushTapEngine.build(scale=SCALE, **ENGINE_KWARGS)
        _assert_same_report(_one_shard(engine, txns_per_query=30, seed=11).run(4), bare)
        # A cluster built with one shard is the same engine again.
        cluster = PushTapCluster.build(shards=1, scale=SCALE, **ENGINE_KWARGS)
        _assert_same_report(ClusterWorkload(cluster, txns_per_query=30, seed=11).run(4), bare)

    def test_faulted_run_matches_mixed_workload(self):
        """The fault sweep's ``mixed`` cell path: dropped and duplicated
        launches, forced aborts, Delivery at 0.1, an invariant checker
        consulted after every injected fault."""
        rates = FaultRates(
            {"drop_launch": 0.05, "duplicate_launch": 0.05, "forced_abort": 0.1}
        )

        def faulted(drive):
            engine = PushTapEngine.build(scale=SCALE, **ENGINE_KWARGS)
            checker = InvariantChecker(engine, raise_on_violation=False)
            injector = FaultInjector(FaultPlan(3, rates))
            install(injector)
            try:
                report = drive(engine, checker)
            finally:
                deactivate()
            return report, checker, injector

        mix = dict(txns_per_query=30, seed=3, delivery_fraction=0.1)
        bare, bare_checker, bare_injector = faulted(
            lambda engine, checker: OracleMixedWorkload(
                engine, invariant_checker=checker, **mix
            ).run(4)
        )
        clustered, checker, injector = faulted(
            lambda engine, checker: _one_shard(
                engine, invariant_checkers=[checker], **mix
            ).run(4)
        )
        assert sum(bare_injector.injected.values()) > 0 and bare.aborted > 0
        _assert_same_report(clustered, bare)
        assert checker.checks == bare_checker.checks > 0
        assert checker.violations == bare_checker.violations
        assert injector.injected == bare_injector.injected

    def test_remote_counters_surface_in_reports(self):
        engine = PushTapEngine.build(scale=SCALE, **ENGINE_KWARGS)
        report = _one_shard(
            engine, txns_per_query=30, seed=11, remote_fraction=0.0
        ).run(2)
        assert report.remote_fraction == 0.0
        assert report.payments > 0
        assert report.remote_payments == 0
        assert report.remote_order_lines == 0
        assert report.order_lines > 0


class TestScatterGatherIdentity:
    @pytest.mark.parametrize(
        "shards, tenants, mix",
        [
            pytest.param(2, 2, {}, id="2"),
            pytest.param(3, 3, {}, id="3"),
            # One tenant without affinity: Delivery batches span shards.
            pytest.param(
                2, 1, dict(affinity=False, delivery_fraction=0.2), id="2-delivery"
            ),
        ],
    )
    def test_queries_match_merged_engine(self, shards, tenants, mix):
        """Cross-shard history + per-shard defrag, queries bit-identical."""
        counts = cluster_row_counts(SCALE, shards)
        cluster = PushTapCluster.build(
            shards=shards, counts=counts, **ENGINE_KWARGS
        )
        merged = PushTapEngine.build(counts=counts, **ENGINE_KWARGS)
        cluster_drivers, merged_drivers = _mirrored_drivers(
            counts, shards, tenants=tenants, **mix
        )
        cross_shard = 0
        split_deliveries = 0
        for i in range(150):
            t = i % tenants
            txn = cluster_drivers[t].next_transaction()
            result = cluster.execute_transaction(txn)
            reference = merged.execute_transaction(
                merged_drivers[t].next_transaction()
            )
            assert result.committed == (not reference.aborted)
            cross_shard += result.cross_shard
            split_deliveries += result.cross_shard and txn.txn_name == "delivery"
            if i == 75:
                # Defragment one shard mid-history; results must still
                # merge identically (defrag moves rows, not values).
                cluster.engines[0].defragment()
        assert cross_shard > 0, "history exercised no cross-shard txns"
        if mix.get("delivery_fraction"):
            assert split_deliveries > 0, "no Delivery went through 2PC"
        for name in ("Q1", "Q6", "Q9"):
            assert cluster.query(name).rows == merged.query(name).rows

    def test_unmergeable_query_rejected(self):
        with pytest.raises(QueryError):
            merge_rows("Q2", [{}, {}])


def _assert_participant_accounting(cluster, before, result):
    """Each shard counted the transaction once, the way it ended: one
    commit (or none on abort) and exactly its own execution time (0.0
    for a shard that never ran)."""
    for shard, engine in enumerate(cluster.engines):
        txns0, time0 = before[shard]
        ran = result.per_shard.get(shard)
        assert engine.stats.transactions - txns0 == int(result.committed), shard
        assert engine.stats.oltp_time - time0 == (
            0.0 if ran is None else ran.total_time
        ), shard


def _participant_counters(cluster):
    return [(e.stats.transactions, e.stats.oltp_time) for e in cluster.engines]


class TestTwoPhaseCommit:
    def _remote_payment(self, cluster):
        """A payment paying at warehouse 1 for a customer of warehouse 2."""
        driver = TPCCDriver(
            cluster.counts, seed=5, payment_fraction=1.0, remote_fraction=4.0
        )
        for _ in range(400):
            txn = driver.next_transaction()
            shards = cluster.router.involved_shards(txn)
            if len(shards) > 1:
                return txn
        raise AssertionError("driver produced no cross-shard payment")

    def test_commit_counters_and_cost(self):
        cluster = PushTapCluster.build(shards=2, scale=SCALE, **ENGINE_KWARGS)
        txn = self._remote_payment(cluster)
        before = _participant_counters(cluster)
        result = cluster.execute_transaction(txn)
        assert result.committed and result.cross_shard
        assert cluster.twopc.attempted == 1
        assert cluster.twopc.committed == 1
        assert len(result.per_shard) == 2
        exec_time = sum(r.total_time for r in result.per_shard.values())
        # Latency = execution + interconnect messages (prepare request,
        # vote, decision, ack for the one remote participant).
        assert result.latency == pytest.approx(
            exec_time + 4 * cluster.interconnect_ns
        )
        assert cluster.coordination_time == pytest.approx(
            4 * cluster.interconnect_ns
        )
        # Participant execution time lands in shard stats; every
        # participant counts the committed transaction.
        _assert_participant_accounting(cluster, before, result)

    def test_router_split_is_exhaustive(self):
        cluster = PushTapCluster.build(shards=2, scale=SCALE, **ENGINE_KWARGS)
        txn = self._remote_payment(cluster)
        subs = cluster.router.split(txn)
        assert sorted(subs) == cluster.router.involved_shards(txn)

    def test_router_rejects_single_shard_split(self):
        router = ShardRouter(2, 4)
        driver = TPCCDriver(
            cluster_row_counts(SCALE, 2),
            seed=5,
            payment_fraction=1.0,
            remote_fraction=0.0,
        )
        txn = driver.next_transaction()
        with pytest.raises(TransactionError):
            router.split(txn)

    @pytest.mark.parametrize("hook", TWOPC_HOOKS)
    def test_fault_hook_aborts_globally(self, hook):
        """Rate-1.0 hooks: global abort, no data change, atomicity holds."""
        from repro.faults.injector import FaultInjector, deactivate, install
        from repro.faults.plan import FaultPlan

        cluster = PushTapCluster.build(shards=2, scale=SCALE, **ENGINE_KWARGS)
        txn = self._remote_payment(cluster)
        before = {
            name: cluster.query(name).rows for name in ("Q1", "Q6", "Q9")
        }
        install(FaultInjector(FaultPlan(3, FaultRates.parse(f"{hook}=1.0"))))
        counters = _participant_counters(cluster)
        try:
            result = cluster.execute_transaction(txn)
        finally:
            deactivate()
        assert not result.committed
        assert result.abort_cause == hook
        # Aborted work still costs its shard time, but counts no commit;
        # a lost prepare leaves the remote shard untouched.
        assert len(result.per_shard) == (1 if hook == TWOPC_LOST_PREPARE else 2)
        _assert_participant_accounting(cluster, counters, result)
        assert cluster.twopc.aborted == 1
        assert cluster.twopc.atomicity_violations() == []
        for name, rows in before.items():
            assert cluster.query(name).rows == rows

    def test_cluster_fault_sweep_smoke(self):
        result = run_fault_sweep(
            seed=3,
            rates=FaultRates.parse("twopc_coordinator_crash=0.5"),
            workload="cluster",
            shards=2,
            intervals=2,
            txns_per_query=20,
        )
        assert result.survived
        assert result.injected.get("twopc_coordinator_crash", 0) > 0
        assert result.stats["cross_shard_aborted"] > 0
        assert result.violations == []


class TestClusterWorkload:
    def test_rejects_bad_config(self):
        cluster = PushTapCluster.build(shards=2, scale=SCALE, **ENGINE_KWARGS)
        with pytest.raises(ConfigError):
            ClusterWorkload(cluster, tenants=0)
        with pytest.raises(ConfigError):
            ClusterWorkload(cluster, warehouse_groups=3)

    def test_remote_fraction_validation(self):
        counts = cluster_row_counts(SCALE, 2)
        with pytest.raises(TransactionError):
            TPCCDriver(counts, remote_fraction=-0.5)
        with pytest.raises(TransactionError):
            TPCCDriver(counts, remote_fraction=10.0)

    def test_report_accounting(self):
        cluster = PushTapCluster.build(shards=2, scale=SCALE, **ENGINE_KWARGS)
        report = ClusterWorkload(
            cluster, txns_per_query=25, seed=11, remote_fraction=4.0
        ).run(3)
        assert report.num_shards == 2 and report.tenants == 2
        assert report.transactions == 75
        assert report.queries == 3
        assert report.cross_shard_attempted > 0
        assert (
            report.cross_shard_committed + report.cross_shard_aborted
            == report.cross_shard_attempted
        )
        assert report.coordination_time > 0
        busiest = max(s.busy_time for s in report.per_shard)
        assert report.simulated_time == pytest.approx(
            busiest + report.coordination_time
        )
        assert report.remote_payments > 0
        snapshot = report.as_dict()
        assert snapshot["shards"] == 2
        assert len(snapshot["per_shard"]) == 2
        assert snapshot["cross_shard"]["attempted"] > 0

    def test_twopc_telemetry_counts_each_attempt_once(self):
        """The coordinator's counter is the report's cross-shard count; the
        driver records no second copy of it (nor a shard-count gauge)."""
        cluster = PushTapCluster.build(shards=2, scale=SCALE, **ENGINE_KWARGS)
        tel = telemetry.enable()
        try:
            report = ClusterWorkload(
                cluster, txns_per_query=25, seed=11, remote_fraction=4.0
            ).run(3)
        finally:
            telemetry.disable()
        assert report.cross_shard_attempted > 0
        assert tel.counters["cluster.twopc.attempted"].value == report.cross_shard_attempted
        assert not any(name.startswith("cluster.txns") for name in tel.counters)
        assert "cluster.shards" not in tel.gauges
