"""Parallel shard execution: ``jobs=N`` is byte-identical to ``jobs=1``.

The parallel layer's whole contract is that the process pool is a pure
wall-clock optimisation: the merged report, every histogram's retained
samples and the 2PC outcome log must match the sequential run
bit-for-bit, under the 2PC fault hooks too. These tests serialize that
observable surface to canonical JSON and compare strings. Telemetry
records in the in-process loop only: with a recording registry, or
without ``fork``, the parallel path refuses to run.
"""

import json

import pytest

from repro.cluster import ClusterWorkload, PushTapCluster
from repro.core.engine import PushTapEngine
from repro.errors import ConfigError, QueryError
from repro.faults.plan import TWOPC_HOOKS, FaultRates
from repro.faults.sweep import run_fault_sweep
from repro.telemetry import registry as telemetry

SCALE = 2e-5


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


def full_state(
    jobs,
    shards=2,
    intervals=2,
    txns_per_query=12,
    seed=11,
    remote_fraction=4.0,
    traced=False,
):
    """Run one cluster workload; returns every observable surface as JSON.

    Covers the report dict, the raw retained histogram samples (order
    matters under decimation) and the 2PC outcome log. ``traced`` runs
    under a recording registry, which only ``jobs=1`` accepts; the
    telemetry itself is left out of the state.
    """
    telemetry.disable()
    cluster = PushTapCluster.build(
        shards=shards,
        scale=SCALE,
        seed=7,
        block_rows=256,
        defrag_period=200,
        extra_rows=12 * intervals * txns_per_query,
    )
    if traced:
        telemetry.enable()
    try:
        workload = ClusterWorkload(
            cluster,
            txns_per_query=txns_per_query,
            seed=seed,
            remote_fraction=remote_fraction,
            jobs=jobs,
        )
        report = workload.run(intervals)
        state = report.as_dict()
        state["txn_samples"] = list(report.txn_histogram.samples)
        state["shard_samples"] = [
            list(s.oltp_latency.samples) for s in report.per_shard
        ]
        state["outcomes"] = [
            {str(k): v for k, v in row.items()}
            for row in cluster.twopc.outcomes
        ]
        return json.dumps(state, sort_keys=True, default=str)
    finally:
        telemetry.disable()


def small_workload(jobs=2):
    cluster = PushTapCluster.build(
        shards=2, scale=SCALE, seed=7, block_rows=256, defrag_period=200
    )
    return ClusterWorkload(cluster, txns_per_query=4, seed=11, jobs=jobs)


class TestJobsIdentity:
    def test_jobs4_four_shards_identical(self):
        """The headline contract: 4 shards on 4 workers."""
        sequential = full_state(1, shards=4)
        parallel = full_state(4, shards=4)
        assert sequential == parallel

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_randomized_histories_identical(self, seed):
        """Different tenant streams and cross-shard rates, jobs=2 vs 1."""
        remote = 2.0 + (seed % 3)
        sequential = full_state(1, seed=seed, remote_fraction=remote)
        parallel = full_state(2, seed=seed, remote_fraction=remote)
        assert sequential == parallel

    def test_identity_without_telemetry(self):
        """The untraced pool run equals the traced in-process run:
        recording telemetry changes nothing the report holds."""
        assert full_state(1, traced=True) == full_state(2)

    def test_recording_registry_refused_before_plan(self):
        """Telemetry records on the coordinator only: under an enabled
        registry, jobs > 1 raises before the plan pass moves any driver
        and records nothing."""
        workload = small_workload()
        registry = telemetry.enable()
        try:
            with pytest.raises(ConfigError, match="jobs=1"):
                workload.run(1)
        finally:
            telemetry.disable()
        assert workload._txn_cursor == 0
        assert workload._query_cursor == 0
        assert not registry.spans and not registry.counters

    def test_no_fork_refused_before_plan(self, monkeypatch):
        """Workers only inherit the run: without fork, jobs > 1 raises
        before the plan pass moves any driver."""
        import repro.parallel.runner as runner

        monkeypatch.setattr(
            runner.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        workload = small_workload()
        with pytest.raises(ConfigError, match="fork"):
            workload.run(1)
        assert workload._txn_cursor == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_error_names_its_shard(self, monkeypatch, jobs):
        """A shard engine's ReproError leaves the cluster as the same
        type, prefixed with its shard once, in process or in a worker."""

        def boom(self, name):
            raise QueryError("boom")

        # Forked workers inherit the patched method.
        monkeypatch.setattr(PushTapEngine, "query", boom)
        workload = small_workload(jobs)
        with pytest.raises(QueryError, match=r"^shard \d: boom$"):
            workload.run(1)

    def test_invalid_jobs_rejected(self):
        cluster = PushTapCluster.build(
            shards=2, scale=SCALE, seed=7, block_rows=256, defrag_period=200
        )
        for jobs in (0, -1):
            with pytest.raises(ConfigError):
                ClusterWorkload(cluster, txns_per_query=4, seed=11, jobs=jobs)


class TestFaultSweepIdentity:
    @pytest.mark.parametrize("hook", sorted(TWOPC_HOOKS))
    def test_twopc_hooks_identical(self, hook):
        """Fault plans drawn on the coordinator replay identically in
        the workers: the whole sweep result (tpmC, aborts, cross-shard
        counts, detection bookkeeping) matches jobs=1."""
        rates = FaultRates({hook: 0.25})
        kwargs = dict(
            workload="cluster", shards=2, intervals=2, txns_per_query=10, scale=SCALE
        )
        sequential = run_fault_sweep(3, rates, **kwargs).as_dict()
        parallel = run_fault_sweep(3, rates, jobs=2, **kwargs).as_dict()
        assert json.dumps(sequential, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )
