"""The worker pass: execute one shard's operation sub-stream.

Each worker owns exactly one shard engine. Under the ``fork`` start
method the engine is inherited copy-on-write from the coordinator's
pristine cluster (zero rebuild cost — the fast path that makes
``jobs=N`` beat ``jobs=1`` on wall-clock); under ``spawn`` the worker
rebuilds its shard from the shared generator stream via
:func:`~repro.cluster.partition.build_shard`, which produces the
bit-identical engine.

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
from repro.faults.invariants import InvariantChecker
from repro.telemetry import registry as telemetry
from repro.telemetry.record import RecordingRegistry, Segment

__all__ = ["WorkerConfig", "ShardResult", "run_shard_ops"]

#: Coordinator's pristine cluster, inherited copy-on-write by forked
#: workers. ``None`` in spawned workers, which rebuild their shard.
_FORK_CLUSTER = None


def _set_fork_cluster(cluster) -> None:
    global _FORK_CLUSTER
    _FORK_CLUSTER = cluster


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs besides its operation list."""

    num_shards: int
    counts: Dict[str, int]
    #: ``PushTapEngine.build`` kwargs for the spawn-rebuild path
    #: (None means the fork fast path is mandatory).
    build_kwargs: Optional[Dict[str, object]]
    #: Telemetry propagation: None disables telemetry in the worker;
    #: otherwise ``(max_histogram_samples, detail_spans, roofline)``.
    telemetry: Optional[Tuple[Optional[int], bool, bool]]
    #: Build a per-shard invariant checker and run the planned checks.
    checkers: bool
    checker_raises: bool
    #: Run one extra check after the stream ends (the fault sweep's
    #: post-run audit, executed where the engine state lives).
    final_check: bool


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


def run_shard_ops(shard: int, ops: List[tuple], cfg: WorkerConfig) -> ShardResult:
    """Execute ``ops`` against shard ``shard``; returns the journal."""
    # Every fault decision was drawn at plan time; a live injector here
    # would double-draw. Deactivate before anything else runs.
    faults.deactivate()
    telemetry.disable()

    cluster = _FORK_CLUSTER
    if cluster is not None:
        engine = cluster.engines[shard]
        router = cluster.router
    else:
        if cfg.build_kwargs is None:
            raise ParallelExecutionError(
                "worker cannot rebuild its shard: the cluster was not "
                "constructed via PushTapCluster.build and the platform "
                "does not support fork"
            )
        from repro.cluster.partition import build_shard
        from repro.cluster.router import ShardRouter

        # Build with telemetry off (as the coordinator built its
        # engines), then start recording.
        engine = build_shard(shard, cfg.num_shards, cfg.counts, **cfg.build_kwargs)
        router = ShardRouter(cfg.num_shards, int(cfg.counts["warehouse"]))

    recorder: Optional[RecordingRegistry] = None
    if cfg.telemetry is not None:
        max_samples, detail_spans, roofline = cfg.telemetry
        recorder = RecordingRegistry(max_histogram_samples=max_samples)
        recorder.detail_spans = detail_spans
        recorder.roofline = roofline
        telemetry.install(recorder)

    checker = (
        InvariantChecker(engine, raise_on_violation=cfg.checker_raises)
        if cfg.checkers
        else None
    )

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
                    f"shard {shard}: single-shard {name} (op {op_id}) "
                    "aborted, but the plan assumed it commits"
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
                    f"shard {shard}: prepare of {name} (op {op_id}) voted "
                    "no, but the plan assumed a yes vote"
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

    if checker is not None and cfg.final_check:
        # The sweep's end-of-run audit runs where the data lives; its
        # telemetry is post-run and intentionally not journaled.
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
