"""Parallel shard execution: ``jobs=N`` is byte-identical to ``jobs=1``.

The parallel layer's whole contract is that the process pool is a pure
wall-clock optimisation: the merged report, every histogram's retained
samples, the 2PC outcome log, and the full telemetry export (counters,
histograms, spans, simulated clock) must match the sequential run
bit-for-bit — under the 2PC fault hooks and under every telemetry
setting the forked workers inherit. These tests serialize the entire
observable surface to canonical JSON and compare strings. Without
``fork`` the parallel path refuses to run.
"""

import json

import pytest

from repro.cluster import ClusterWorkload, PushTapCluster
from repro.core.engine import PushTapEngine
from repro.errors import ConfigError, QueryError
from repro.faults.plan import TWOPC_HOOKS, FaultRates
from repro.faults.sweep import run_fault_sweep
from repro.telemetry import registry as telemetry
from repro.telemetry.registry import MetricsRegistry

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
    with_telemetry=True,
    registry=None,
):
    """Run one cluster workload; returns every observable surface as JSON.

    Covers the report dict, the raw retained histogram samples (order
    matters under decimation), the 2PC outcome log, and — when enabled —
    the complete telemetry registry (``registry``, or a fresh default
    one): counters, histogram samples, spans with their start offsets,
    and the simulated clock.
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
    tel = telemetry.enable(registry) if with_telemetry else None
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
        if tel is not None:
            state["counters"] = {
                k: c.value for k, c in sorted(tel.counters.items())
            }
            state["histograms"] = {
                k: (h.count, h.sum, list(h.samples))
                for k, h in sorted(tel.histograms.items())
            }
            state["spans"] = [
                (s.name, s.start, s.duration, s.attrs) for s in tel.spans
            ]
            state["sim_time"] = tel.sim_time
        return json.dumps(state, sort_keys=True, default=str)
    finally:
        telemetry.disable()


class TestJobsIdentity:
    def test_jobs4_four_shards_identical(self):
        """The headline contract: 4 shards on 4 workers, full telemetry."""
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
        sequential = full_state(1, with_telemetry=False)
        parallel = full_state(2, with_telemetry=False)
        assert sequential == parallel

    def test_telemetry_settings_reach_workers(self):
        """Decimation, detail spans and roofline accounting are read by
        the workers from the registry they inherit."""

        def tuned():
            registry = MetricsRegistry(max_histogram_samples=4)
            registry.detail_spans = registry.roofline = True
            return registry

        assert full_state(1, registry=tuned()) == full_state(2, registry=tuned())

    def test_no_fork_refused_before_plan(self, monkeypatch):
        """Workers only inherit the run: without fork, jobs > 1 raises
        before the plan pass moves any driver."""
        import repro.parallel.runner as runner

        monkeypatch.setattr(
            runner.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        cluster = PushTapCluster.build(
            shards=2, scale=SCALE, seed=7, block_rows=256, defrag_period=200
        )
        workload = ClusterWorkload(cluster, txns_per_query=4, seed=11, jobs=2)
        with pytest.raises(ConfigError, match="fork"):
            workload.run(1)
        assert workload._txn_cursor == 0

    def test_worker_error_names_its_shard(self, monkeypatch):
        """A worker's ReproError comes back as the same type, prefixed
        with its shard once."""

        def boom(self, name):
            raise QueryError("boom")

        # Forked workers inherit the patched method.
        monkeypatch.setattr(PushTapEngine, "query", boom)
        cluster = PushTapCluster.build(
            shards=2, scale=SCALE, seed=7, block_rows=256, defrag_period=200
        )
        workload = ClusterWorkload(cluster, txns_per_query=4, seed=11, jobs=2)
        with pytest.raises(QueryError, match=r"^shard \d: boom"):
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
