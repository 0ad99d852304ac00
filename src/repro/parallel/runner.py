"""Validation and process-pool orchestration for ``jobs > 1`` runs.

The parallel path is only sound when the run's nondeterminism is fully
front-loaded into the seeded streams the plan pass replays, so the
runner enforces the preconditions instead of silently diverging:

* the cluster and workload must be **pristine** (no prior transactions,
  queries, or cursor movement) — workers rebuild/inherit engines from
  the initial state, so mid-stream resumption has no parallel meaning;
* an active fault injector may only use the 2PC hooks (the plan pass
  draws those ahead of time; engine-local hooks would fire inside
  workers on divergent streams);
* invariant checkers, when present, must be the canonical one-per-shard
  set so workers can reconstruct them.

Workers run on a ``concurrent.futures`` process pool. Where the
platform offers ``fork`` the workers inherit the coordinator's pristine
engines copy-on-write (no rebuild cost); otherwise each worker rebuilds
its shard from the shared generator stream, bit-identically.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing

from repro.errors import ConfigError
from repro.faults import injector as faults
from repro.faults.plan import TWOPC_HOOKS
from repro.telemetry import registry as telemetry

from repro.parallel import worker as worker_mod
from repro.parallel.merge import merge_cluster_run
from repro.parallel.plan import plan_cluster_run
from repro.parallel.worker import WorkerConfig, run_shard_ops

__all__ = ["run_parallel_cluster_workload"]


def _validate(workload) -> None:
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
    if checkers:
        if len(checkers) != cluster.num_shards or any(
            checker.engine is not cluster.engines[shard]
            for shard, checker in enumerate(checkers)
        ):
            raise ConfigError(
                "jobs > 1 requires one invariant checker per shard, in "
                "shard order over the cluster's engines (workers rebuild "
                "the checkers; any other arrangement cannot be mirrored)"
            )
        if len({checker.raise_on_violation for checker in checkers}) > 1:
            raise ConfigError(
                "jobs > 1 requires a uniform raise_on_violation across "
                "the invariant checkers"
            )


def _worker_config(workload) -> WorkerConfig:
    cluster = workload.cluster
    tel = telemetry.active()
    checkers = workload.invariant_checkers
    return WorkerConfig(
        num_shards=cluster.num_shards,
        counts=dict(cluster.counts),
        build_kwargs=getattr(cluster, "_shard_build_kwargs", None),
        telemetry=(
            (tel.max_histogram_samples, tel.detail_spans, tel.roofline)
            if tel.enabled
            else None
        ),
        checkers=bool(checkers),
        checker_raises=checkers[0].raise_on_violation if checkers else True,
        final_check=bool(getattr(workload, "worker_final_check", False)),
    )


def _execute(cluster, run_plan, cfg: WorkerConfig, jobs: int):
    num_shards = cluster.num_shards
    max_workers = max(1, min(int(jobs), num_shards))
    start_methods = multiprocessing.get_all_start_methods()
    use_fork = "fork" in start_methods
    context = multiprocessing.get_context("fork" if use_fork else None)
    if use_fork:
        # Forked workers inherit the pristine cluster copy-on-write —
        # zero rebuild cost, which is where the wall-clock win lives.
        worker_mod._set_fork_cluster(cluster)
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers, mp_context=context
        ) as pool:
            futures = [
                pool.submit(run_shard_ops, shard, run_plan.shard_ops[shard], cfg)
                for shard in range(num_shards)
            ]
            return [future.result() for future in futures]
    finally:
        if use_fork:
            worker_mod._set_fork_cluster(None)


def run_parallel_cluster_workload(workload, num_queries: int, jobs: int, report) -> None:
    """Run ``num_queries`` intervals of ``workload`` on ``jobs`` workers.

    Fills ``report`` (and the coordinator-side cluster/telemetry/fault
    state) byte-identically to a sequential run.
    """
    _validate(workload)
    run_plan = plan_cluster_run(workload, num_queries)
    cfg = _worker_config(workload)
    shard_results = _execute(workload.cluster, run_plan, cfg, jobs)
    workload.worker_invariants = [
        {"checks": result.checks, "violations": list(result.violations)}
        for result in shard_results
    ]
    merge_cluster_run(workload, num_queries, run_plan, shard_results, report)
