"""The plan pass: decide every operation without executing any engine.

Replays :meth:`ClusterWorkload.run`'s decision loop — tenant rotation,
driver draws, routing, 2PC fault decisions — advancing the *real*
drivers and the *real* fault plan streams, but never touching a shard
engine. The output is one picklable operation sub-stream per shard
plus a global record list the merge pass walks to reconstruct the
sequential interleaving.

Two invariants make this sound:

* The drivers' draw sequences depend only on their own RNG streams and
  on ``note_abort`` feedback. Under the cluster's fault model every
  abort is a *planned* 2PC abort (single-shard TPC-C transactions
  never abort: no local conflicts exist in a serial engine and the
  OLTP-local hooks are excluded under ``jobs > 1``), so the plan can
  apply ``note_abort`` at decision time, exactly one driver-step ahead
  of where the sequential run applies it — before the driver's next
  draw either way.
* :func:`~repro.cluster.twopc.plan_twopc_decision` consumes the 2PC
  hook streams in the exact order the sequential coordinator would,
  so the fault schedule is identical draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.twopc import TwoPCDecision, plan_twopc_decision

__all__ = [
    "TxnRecord",
    "QueryRecord",
    "RunPlan",
    "plan_cluster_run",
]


@dataclass(frozen=True)
class TxnRecord:
    """One transaction in the global stream."""

    op_id: int
    home: int
    #: The planned 2PC fault decision (None for single-shard).
    decision: Optional[TwoPCDecision]


@dataclass(frozen=True)
class QueryRecord:
    """One scatter-gather query in the global stream."""

    op_id: int
    name: str


@dataclass
class RunPlan:
    """The planned run: global records plus per-shard sub-streams."""

    records: List[object]
    #: ``shard_ops[s]`` is shard ``s``'s operation list, each op a
    #: picklable tuple tagged ``"txn" | "part" | "query" | "check"``.
    shard_ops: List[List[tuple]]


def plan_cluster_run(workload, num_queries: int) -> RunPlan:
    """Plan ``num_queries`` intervals of ``workload`` without executing."""
    cluster = workload.cluster
    router = cluster.router
    num_shards = cluster.num_shards
    have_checkers = bool(workload.invariant_checkers)
    records: List[object] = []
    shard_ops: List[List[tuple]] = [[] for _ in range(num_shards)]
    state = {"op_id": 0, "pending": 0}

    def next_op_id() -> int:
        op_id = state["op_id"]
        state["op_id"] = op_id + 1
        return op_id

    def plan_check(force: bool = False) -> None:
        # Mirrors ClusterWorkload._maybe_check: the pending-fault count
        # is drained at *every* safe point (checkers permitting), and a
        # check runs when any fault fired since the last drain (or the
        # point is forced).
        if not have_checkers:
            return
        pending, state["pending"] = state["pending"], 0
        if pending or force:
            for ops in shard_ops:
                ops.append(("check",))

    for _ in range(num_queries):
        for _ in range(workload.txns_per_query):
            tenant = workload._txn_cursor % workload.tenants
            workload._txn_cursor += 1
            driver = workload.drivers[tenant]
            txn = driver.next_transaction()
            shards = router.involved_shards(txn)
            op_id = next_op_id()
            if len(shards) == 1:
                home = shards[0]
                records.append(TxnRecord(op_id, home, None))
                shard_ops[home].append(
                    ("txn", op_id, txn.txn_name, txn.params)
                )
            else:
                home = router.home_shard(txn)
                decision = plan_twopc_decision(home, shards)
                state["pending"] += decision.fires
                if not decision.decide_commit:
                    driver.note_abort(txn)
                records.append(TxnRecord(op_id, home, decision))
                resolution = "commit" if decision.decide_commit else "abort"
                for shard in shards:
                    shard_ops[shard].append(
                        (
                            "part",
                            op_id,
                            txn.txn_name,
                            txn.params,
                            decision.statuses[shard],
                            resolution,
                        )
                    )
            plan_check()
        name = workload.queries[workload._query_cursor % len(workload.queries)]
        workload._query_cursor += 1
        op_id = next_op_id()
        records.append(QueryRecord(op_id, name))
        for ops in shard_ops:
            ops.append(("query", op_id, name))
        plan_check(force=True)
    return RunPlan(records=records, shard_ops=shard_ops)
