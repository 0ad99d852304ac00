"""The merge pass: reconstruct the sequential run from shard journals.

Walks the plan's global record list in stream order and re-runs the
coordinator-side bookkeeping (report accounting, 2PC settlement,
scatter-gather timing) with the same code paths a ``jobs=1`` run
takes — :meth:`TwoPhaseCommit._settle` for cross-shard transactions,
the same float accumulation order everywhere — so the resulting
report, histograms and outcome log are byte-identical to the
sequential run. No telemetry is recorded: the runner refuses a
recording registry under ``jobs > 1``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.faults import injector as faults
from repro.faults import plan as fault_plan

from repro.parallel.plan import QueryRecord, RunPlan, TxnRecord
from repro.parallel.worker import ShardResult

__all__ = ["merge_cluster_run"]


class _WorkerTxnResult:
    """A participant result reconstructed from a worker journal.

    Only the execution time crosses process boundaries; it is all
    :meth:`TwoPhaseCommit._settle` and the report bookkeeping read.
    """

    __slots__ = ("total_time",)

    def __init__(self, total_time: float) -> None:
        self.total_time = total_time


def merge_cluster_run(
    workload,
    run_plan: RunPlan,
    shard_results: Sequence[ShardResult],
    report,
) -> None:
    """Fill ``report`` from the plan and the per-shard worker journals."""
    cluster = workload.cluster
    num_shards = cluster.num_shards
    inj = faults.active()
    results: List[Dict[int, float]] = [r.results for r in shard_results]

    def merge_twopc(rec: TxnRecord):
        decision = rec.decision
        # Phase 1 in coordinator order, re-applying the accounting of
        # each planned fault at the position its draw happened.
        for shard in decision.order:
            status = decision.statuses[shard]
            if status == "lost":
                inj.replay_fire(fault_plan.TWOPC_LOST_PREPARE)
                inj.detect(fault_plan.TWOPC_LOST_PREPARE)
                continue
            if status == "timeout":
                inj.replay_fire(fault_plan.TWOPC_PARTICIPANT_TIMEOUT)
                inj.detect(fault_plan.TWOPC_PARTICIPANT_TIMEOUT)
        if decision.coordinator_silent:
            inj.replay_fire(fault_plan.TWOPC_COORDINATOR_CRASH)
            inj.detect(fault_plan.TWOPC_COORDINATOR_CRASH)

        def resolve(shard: int, action: str) -> _WorkerTxnResult:
            return _WorkerTxnResult(results[shard][rec.op_id])

        return cluster.twopc._settle(
            rec.home,
            list(decision.order),
            decision.statuses,
            {},
            decision.decide_commit,
            decision.coordinator_silent,
            decision.abort_cause,
            resolve,
        )

    def merge_query(rec: QueryRecord) -> float:
        cluster.queries_run += 1
        if num_shards == 1:
            return results[0][rec.op_id]
        gather = (num_shards - 1) * cluster.interconnect_ns
        cluster.gather_time += gather
        # ClusterQueryResult.total_time: shard scans run in parallel, so
        # the client sees the slowest shard plus the gather.
        slowest = max(
            (results[shard][rec.op_id] for shard in range(num_shards)),
            default=0.0,
        )
        return slowest + gather

    for rec in run_plan.records:
        if isinstance(rec, QueryRecord):
            total_time = merge_query(rec)
            report.queries += 1
            report.observe_query(rec.name, total_time)
        else:
            if rec.decision is None:
                latency = results[rec.home][rec.op_id]
                committed = True
            else:
                outcome = merge_twopc(rec)
                latency = outcome.latency
                committed = outcome.committed
            report.transactions += 1
            if not committed:
                # note_abort was already applied at plan time.
                report.aborted += 1
            report.observe_txn(latency)
            home = report.per_shard[rec.home]
            home.oltp_latency.observe(latency)
            if latency > workload.slo_targets.oltp_ns:
                home.slo_violations += 1
        # Mirrors ClusterWorkload._maybe_check: the pending count is
        # drained at every safe point (after each transaction and each
        # query); the plan decided where a check runs, and the workers
        # ran it.
        if workload.invariant_checkers:
            inj.take_pending_checks()

    # Mirror the workers' final engine stats onto the coordinator's
    # engines: the pristine precondition makes the absolutes equal the
    # run's deltas, so the caller's ordinary stats-delta bookkeeping
    # (and cluster-level busy-time/makespan accounting) just works. The
    # engines' *data* is not synced — it lives in the workers — so the
    # data here has aged by no commit and the defrag period restarts.
    for shard, worker in enumerate(shard_results):
        stats = worker.stats
        engine = cluster.engines[shard]
        engine.oltp.committed += int(stats["transactions"])
        engine.oltp.busy_time += stats["oltp_time"]
        engine.stats.queries += int(stats["queries"])
        engine.stats.defrag_runs += int(stats["defrag_runs"])
        engine.stats.olap_time += stats["olap_time"]
        engine.stats.defrag_time += stats["defrag_time"]
        engine._committed_at_defrag = engine.oltp.committed
