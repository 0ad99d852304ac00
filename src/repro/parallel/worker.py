"""The worker pass: execute one shard's operation sub-stream.

Each worker owns exactly one shard engine. Workers are forked from the
coordinator and inherit its run: the pristine workload (cluster,
router and invariant checkers, copy-on-write — zero rebuild cost, which
is where ``jobs=N`` beats ``jobs=1`` on wall-clock).

Workers never consult the fault plan — every fault decision was drawn
at plan time — so the injector is deactivated for the whole worker
lifetime. Telemetry is off: the runner refuses a recording registry
before any worker starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ParallelExecutionError
from repro.faults import injector as faults

__all__ = ["ShardResult", "run_shard_ops"]

#: The coordinator's pristine workload, inherited by forked workers.
_FORK_WORKLOAD = None


def _set_fork_workload(workload) -> None:
    global _FORK_WORKLOAD
    _FORK_WORKLOAD = workload


@dataclass
class ShardResult:
    """One worker's journal: results and final engine state."""

    shard: int
    #: ``op_id`` → simulated execution time of this shard's part (ns).
    results: Dict[int, float]
    #: Final engine stats (engines start pristine, so absolute == delta).
    stats: Dict[str, float]
    checks: int
    violations: List[str]


def run_shard_ops(shard: int, ops: List[tuple]) -> ShardResult:
    """Execute ``ops`` against shard ``shard``; returns the journal."""
    # Every fault decision was drawn at plan time; a live injector here
    # would double-draw. Deactivate before anything else runs.
    faults.deactivate()
    workload = _FORK_WORKLOAD
    engine = workload.cluster.engines[shard]
    router = workload.cluster.router
    checkers = workload.invariant_checkers
    checker = checkers[shard] if checkers else None

    from repro.oltp.tpcc import rebuild_transaction

    results: Dict[int, float] = {}

    for op in ops:
        kind = op[0]
        if kind == "txn":
            _, op_id, name, params = op
            txn = rebuild_transaction(name, params)
            result = engine.execute_transaction(txn)
            if result.aborted:
                raise ParallelExecutionError(
                    f"single-shard {name} (op {op_id}) aborted, but the "
                    "plan assumed it commits"
                )
            results[op_id] = result.total_time
        elif kind == "part":
            _, op_id, name, params, status, resolution = op
            # Participants defragment before the prepare phase — the
            # same rule PushTapCluster.execute_transaction applies to
            # every involved shard (lost-prepare ones included).
            if engine.defrag_due():
                engine.defragment()
            if status == "lost":
                continue
            txn = rebuild_transaction(name, params)
            sub = router.split(txn)[shard]
            handle = engine.oltp.prepare(sub)
            if not handle.vote_yes:
                raise ParallelExecutionError(
                    f"prepare of {name} (op {op_id}) voted no, but the "
                    "plan assumed a yes vote"
                )
            if resolution == "commit":
                result = engine.oltp.commit_prepared(handle)
            else:
                result = engine.oltp.abort_prepared(handle)
            results[op_id] = result.total_time
        elif kind == "query":
            _, op_id, name = op
            query = engine.query(name)
            results[op_id] = query.total_time
        elif kind == "check":
            checker.check()
        else:  # pragma: no cover - plan corruption
            raise ParallelExecutionError(f"unknown shard op {op!r}")

    if checker is not None:
        # Only this worker holds the shard's final state, so the
        # end-of-stream audit runs here.
        checker.check()

    stats = engine.stats
    return ShardResult(
        shard=shard,
        results=results,
        stats={
            "transactions": stats.transactions,
            "queries": stats.queries,
            "defrag_runs": stats.defrag_runs,
            "oltp_time": stats.oltp_time,
            "olap_time": stats.olap_time,
            "defrag_time": stats.defrag_time,
        },
        checks=checker.checks if checker is not None else 0,
        violations=list(checker.violations) if checker is not None else [],
    )
