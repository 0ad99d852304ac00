"""Parallel shard execution: ``jobs=N`` is byte-identical to ``jobs=1``.

The parallel layer's whole contract is that the process pool is a pure
wall-clock optimisation: the merged report, every histogram's retained
samples, the 2PC outcome log, and the full telemetry export (counters,
histograms, spans, simulated clock) must match the sequential run
bit-for-bit — under the 2PC fault hooks and on the spawn fallback path
(no ``fork``). These tests serialize the
entire observable surface to canonical JSON and compare strings.
"""

import json

import pytest

from repro.cluster import ClusterWorkload, PushTapCluster
from repro.errors import ConfigError
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
    with_telemetry=True,
):
    """Run one cluster workload; returns every observable surface as JSON.

    Covers the report dict, the raw retained histogram samples (order
    matters under decimation), the 2PC outcome log, and — when enabled —
    the complete telemetry registry: counters, histogram samples, spans
    with their start offsets, and the simulated clock.
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
    tel = telemetry.enable() if with_telemetry else None
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

    def test_spawn_fallback_identical(self, monkeypatch):
        """Workers rebuilt from kwargs (no fork/COW) merge identically."""
        import repro.parallel.runner as runner

        sequential = full_state(1)
        monkeypatch.setattr(
            runner.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        parallel = full_state(2)
        assert sequential == parallel

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
