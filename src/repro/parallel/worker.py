"""The worker pass: execute one shard's operation sub-stream.

Each worker owns exactly one shard engine. Workers are forked from the
coordinator and inherit its run: the pristine workload (cluster,
router and invariant checkers, copy-on-write — zero rebuild cost, which
is where ``jobs=N`` beats ``jobs=1`` on wall-clock) and the active
telemetry registry whose settings the worker's recorder copies.

Workers never consult the fault plan — every fault decision was drawn
at plan time — so the injector is deactivated for the whole worker
lifetime. Telemetry, when the coordinator records, runs through a
:class:`~repro.telemetry.record.RecordingRegistry` whose journaled
segments travel back for sequential-order replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ParallelExecutionError
from repro.faults import injector as faults
from repro.telemetry import registry as telemetry
from repro.telemetry.record import RecordingRegistry, Segment

__all__ = ["ShardResult", "run_shard_ops"]

#: The coordinator's pristine workload, inherited by forked workers.
_FORK_WORKLOAD = None


def _set_fork_workload(workload) -> None:
    global _FORK_WORKLOAD
    _FORK_WORKLOAD = workload


@dataclass
class ShardResult:
    """One worker's journal: results, segments, and final engine state."""

    shard: int
    #: ``op_id`` → simulated execution time of this shard's part (ns).
    results: Dict[int, float]
    #: ``(op_id, tag)`` → journaled telemetry segment.
    segments: Dict[Tuple[int, str], Segment]
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

    # A pool process that runs a second shard reads the recorder the
    # first one installed, which carries the same settings.
    inherited = telemetry.active()
    recorder: Optional[RecordingRegistry] = None
    if inherited.enabled:
        recorder = RecordingRegistry(
            max_histogram_samples=inherited.max_histogram_samples
        )
        recorder.detail_spans = inherited.detail_spans
        recorder.roofline = inherited.roofline
        telemetry.install(recorder)

    from repro.oltp.tpcc import rebuild_transaction

    results: Dict[int, float] = {}
    segments: Dict[Tuple[int, str], Segment] = {}

    def begin() -> None:
        if recorder is not None:
            recorder.begin_segment()

    def end(op_id: int, tag: str) -> None:
        if recorder is not None:
            segments[(op_id, tag)] = recorder.end_segment()

    for op in ops:
        kind = op[0]
        if kind == "txn":
            _, op_id, name, params = op
            txn = rebuild_transaction(name, params)
            begin()
            result = engine.execute_transaction(txn)
            end(op_id, "txn")
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
            begin()
            if engine.defrag_due():
                engine.defragment()
            end(op_id, "defrag")
            if status == "lost":
                continue
            txn = rebuild_transaction(name, params)
            sub = router.split(txn)[shard]
            begin()
            handle = engine.oltp.prepare(sub)
            end(op_id, "prepare")
            if not handle.vote_yes:
                raise ParallelExecutionError(
                    f"prepare of {name} (op {op_id}) voted no, but the "
                    "plan assumed a yes vote"
                )
            begin()
            if resolution == "commit":
                result = engine.oltp.commit_prepared(handle)
            else:
                result = engine.oltp.abort_prepared(handle)
            end(op_id, "resolve")
            results[op_id] = result.total_time
        elif kind == "query":
            _, op_id, name = op
            begin()
            query = engine.query(name)
            end(op_id, "query")
            results[op_id] = query.total_time
        elif kind == "check":
            _, op_id = op
            begin()
            checker.check()
            end(op_id, "check")
        else:  # pragma: no cover - plan corruption
            raise ParallelExecutionError(f"unknown shard op {op!r}")

    if checker is not None:
        # Only this worker holds the shard's final state, so the
        # end-of-stream audit runs here; its telemetry is post-run and
        # intentionally not journaled.
        checker.check()

    stats = engine.stats
    return ShardResult(
        shard=shard,
        results=results,
        segments=segments,
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
