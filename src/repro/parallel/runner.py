"""Validation and process-pool orchestration for ``jobs > 1`` runs.

The parallel path is only sound when the run's nondeterminism is fully
front-loaded into the seeded streams the plan pass replays, so the
runner enforces the preconditions instead of silently diverging:

* the platform must offer the ``fork`` start method — workers inherit
  the run instead of rebuilding it (elsewhere, run with ``jobs=1``);
* telemetry must be off — each simulated metric belongs on the one
  timeline of the in-process loop, so a recording registry runs with
  ``jobs=1``;
* the cluster and workload must be **pristine** (no prior transactions,
  queries, or cursor movement) — workers inherit the engines in their
  initial state, so mid-stream resumption has no parallel meaning;
* an active fault injector may only use the 2PC hooks (the plan pass
  draws those ahead of time; engine-local hooks would fire inside
  workers on divergent streams);
* invariant checkers, when present, must be one unused checker per
  shard, in shard order, so each worker runs its shard's own checker.

Workers run on a ``concurrent.futures`` process pool whose processes
are forked after the pristine workload is published, so they inherit
its engines copy-on-write (no rebuild cost). A worker's
:class:`~repro.errors.ReproError` is re-raised here as the same type,
naming its shard.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing

from repro.errors import ConfigError, on_shard
from repro.faults import injector as faults
from repro.faults.plan import TWOPC_HOOKS
from repro.telemetry import registry as telemetry

from repro.parallel import worker as worker_mod
from repro.parallel.merge import merge_cluster_run
from repro.parallel.plan import plan_cluster_run
from repro.parallel.worker import run_shard_ops

__all__ = ["run_parallel_cluster_workload"]


def _validate(workload) -> None:
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ConfigError(
            "jobs > 1 requires the fork start method: workers inherit "
            "the built cluster rather than rebuild it (run with jobs=1)"
        )
    if telemetry.active().enabled:
        raise ConfigError(
            "jobs > 1 does not record telemetry: simulated metrics live on "
            "the one timeline of the in-process loop (run with jobs=1)"
        )
    cluster = workload.cluster
    pristine = (
        workload._txn_cursor == 0
        and workload._query_cursor == 0
        and cluster.queries_run == 0
        and cluster.gather_time == 0.0
        and cluster.twopc.attempted == 0
        and not cluster.twopc.outcomes
        and cluster.twopc.coordination_time == 0.0
        and all(
            engine.stats.transactions == 0
            and engine.stats.queries == 0
            and engine.stats.defrag_runs == 0
            and engine.stats.oltp_time == 0.0
            and engine.stats.olap_time == 0.0
            and engine.stats.defrag_time == 0.0
            for engine in cluster.engines
        )
    )
    if not pristine:
        raise ConfigError(
            "jobs > 1 requires a pristine cluster and workload: workers "
            "start from the freshly built engines, so a cluster that "
            "already ran transactions or queries cannot be resumed in "
            "parallel (run with jobs=1, or build a fresh cluster)"
        )
    inj = faults.active()
    if inj.enabled:
        extra = [
            hook
            for hook in inj.plan.rates.active_hooks
            if hook not in TWOPC_HOOKS
        ]
        if extra:
            raise ConfigError(
                "jobs > 1 supports only the cluster 2PC fault hooks "
                f"({', '.join(TWOPC_HOOKS)}); active engine-local hooks "
                f"{', '.join(extra)} would draw inside workers on "
                "divergent streams (run with jobs=1)"
            )
    checkers = workload.invariant_checkers
    if checkers and (
        len(checkers) != cluster.num_shards
        or any(
            checker.engine is not cluster.engines[shard] or checker.checks
            for shard, checker in enumerate(checkers)
        )
    ):
        raise ConfigError(
            "jobs > 1 requires one unused invariant checker per shard, in "
            "shard order over the cluster's engines (each worker runs its "
            "shard's checker; any other arrangement cannot be mirrored)"
        )


def _execute(workload, run_plan, jobs: int):
    num_shards = workload.cluster.num_shards
    max_workers = max(1, min(int(jobs), num_shards))
    # Forked workers inherit the pristine workload copy-on-write — zero
    # rebuild cost, which is where the wall-clock win lives.
    worker_mod._set_fork_workload(workload)
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            futures = [
                pool.submit(run_shard_ops, shard, run_plan.shard_ops[shard])
                for shard in range(num_shards)
            ]
            return [
                on_shard(shard, future.result) for shard, future in enumerate(futures)
            ]
    finally:
        worker_mod._set_fork_workload(None)


def run_parallel_cluster_workload(workload, num_queries: int, jobs: int, report) -> None:
    """Run ``num_queries`` intervals of ``workload`` on ``jobs`` workers.

    Fills ``report`` (and the coordinator-side cluster and fault state)
    byte-identically to a sequential run.
    """
    _validate(workload)
    run_plan = plan_cluster_run(workload, num_queries)
    shard_results = _execute(workload, run_plan, jobs)
    workload.worker_invariants = [
        {"checks": result.checks, "violations": list(result.violations)}
        for result in shard_results
    ]
    merge_cluster_run(workload, run_plan, shard_results, report)
