"""The bench harness behind ``python -m repro.experiments bench``.

Each profile workload runs once and its simulated sections are pinned
two ways:

1. **Baseline gate** — when the run's parameters match the committed
   baseline snapshot (e.g. ``BENCH_3.json``), the simulated sections must
   equal the baseline's exactly (exact float equality, no tolerances),
   which pins the whole history of snapshots to one simulated truth. A
   PR that changes any simulated number is a correctness regression, not
   an optimisation.
2. **Parallel identity** — the ``cluster`` workload runs at ``jobs=1``
   and ``jobs=N``; the two reports must be identical, and their
   wall-clock ratio is the (optionally gated) parallel speedup.

Wall-clock numbers in a snapshot are evidence about the host that wrote
it, never gated against another host's; host-time claims go through
``benchmarks/e2e``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.trace.profile import run_profile

__all__ = [
    "SIM_SECTIONS",
    "ClusterRun",
    "BenchResult",
    "simulated_sections",
    "diff_sections",
    "deterministic_snapshot",
    "run_bench",
]

#: Bench-snapshot sections that must be bit-identical across PRs at
#: fixed parameters.
SIM_SECTIONS = ("simulated", "counters", "spans", "tracks", "critical_path_ns")

#: Profile workload each bench workload name maps to (``oltp`` is the
#: bench-level name of the transaction-only ``tpcc`` profile).
PROFILE_WORKLOADS = {"oltp": "tpcc", "ch": "ch", "mixed": "mixed"}

#: Schema version of the BENCH comparison snapshot.
BENCH_COMPARE_VERSION = 1


def simulated_sections(bench: Dict[str, object]) -> Dict[str, object]:
    """The simulated-truth subset of a bench snapshot."""
    return {key: bench.get(key) for key in SIM_SECTIONS}


def diff_sections(
    expected: Dict[str, object],
    actual: Dict[str, object],
    prefix: str = "",
) -> List[str]:
    """Exact recursive diff of two simulated sections.

    Returns human-readable ``path: expected != actual`` lines; empty
    means bit-identical. Floats are compared exactly — the harness's
    whole point is that simulated results don't drift at all.
    """
    drifts: List[str] = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in expected:
                drifts.append(f"{path}: unexpected key (not in baseline)")
            elif key not in actual:
                drifts.append(f"{path}: missing key")
            else:
                drifts.extend(diff_sections(expected[key], actual[key], path))
        return drifts
    if expected != actual:
        drifts.append(f"{prefix}: {expected!r} != {actual!r}")
    return drifts


@dataclass
class ClusterRun:
    """The sharded cluster executed sequentially and in parallel.

    ``jobs_drift`` is the exact recursive diff of the ``jobs=1`` and
    ``jobs=N`` reports (parallel-merge determinism); it must be empty.
    """

    shards: int
    jobs: int
    report: Dict[str, object]
    jobs_drift: List[str]
    sequential_s: float
    parallel_s: float

    @property
    def parallel_speedup(self) -> float:
        """Sequential over parallel wall-clock."""
        return (
            self.sequential_s / self.parallel_s
            if self.parallel_s
            else float("inf")
        )


@dataclass
class BenchResult:
    """Everything one bench run produced, plus pass/fail state."""

    #: Bench workload name → its profile bench snapshot.
    runs: Dict[str, Dict[str, object]]
    baseline_tag: Optional[str]
    baseline_workload: Optional[str]
    baseline_compared: bool
    baseline_drift: List[str]
    min_parallel_speedup: float = 0.0
    cluster: Optional[ClusterRun] = None
    snapshot: Dict[str, object] = field(default_factory=dict)

    @property
    def jobs_drift(self) -> List[str]:
        """The cluster workload's jobs=1-vs-jobs=N diff (empty if not run)."""
        return self.cluster.jobs_drift if self.cluster is not None else []

    @property
    def parallel_speedup_ok(self) -> bool:
        """The cluster workload meets its jobs=1/jobs=N wall-clock bar."""
        if self.cluster is None:
            return True
        return self.cluster.parallel_speedup >= self.min_parallel_speedup

    @property
    def passed(self) -> bool:
        return (
            not self.baseline_drift
            and not self.jobs_drift
            and self.parallel_speedup_ok
        )


def _run_cluster_compare(
    shards: int,
    jobs: int,
    intervals: int,
    txns_per_query: int,
    scale: float,
    seed: int,
    defrag_period: int,
) -> ClusterRun:
    """Run the sharded cluster workload at ``jobs=1`` and ``jobs=N``.

    Same build and workload idiom as the ``cluster`` experiment (fixed
    row counts, homogeneous tenant streams); wall-clock covers the
    workload run only, not the cluster build.
    """
    from repro.cluster import ClusterWorkload, PushTapCluster, cluster_row_counts

    counts = cluster_row_counts(scale, shards)

    def run_once(run_jobs: int) -> Tuple[Dict[str, object], float]:
        cluster = PushTapCluster.build(
            shards=shards,
            counts=counts,
            seed=seed,
            defrag_period=defrag_period,
            block_rows=256,
            extra_rows=12 * intervals * txns_per_query,
        )
        workload = ClusterWorkload(
            cluster,
            txns_per_query=txns_per_query,
            seed=seed,
            remote_fraction=1.0,
            tenants=shards,
            homogeneous_tenants=True,
            warehouse_groups=shards,
        )
        t0 = time.perf_counter()
        report = workload.run(intervals, jobs=run_jobs)
        wall = time.perf_counter() - t0
        return report.as_dict(), wall

    seq_report, sequential_s = run_once(1)
    par_report, parallel_s = run_once(jobs)
    return ClusterRun(
        shards=shards,
        jobs=jobs,
        report=seq_report,
        jobs_drift=diff_sections(seq_report, par_report),
        sequential_s=sequential_s,
        parallel_s=parallel_s,
    )


def run_bench(
    workloads: Sequence[str] = ("mixed", "ch"),
    baseline_path: Optional[str] = "BENCH_3.json",
    tag: str = "5",
    intervals: int = 6,
    txns_per_query: int = 30,
    scale: float = 2e-5,
    seed: int = 11,
    defrag_period: int = 200,
    queries: Sequence[str] = ("Q1", "Q6", "Q9"),
    min_parallel_speedup: float = 0.0,
    jobs: int = 4,
    cluster_shards: int = 4,
) -> BenchResult:
    """Run the bench harness; returns results + the snapshot to write.

    The default parameters replicate the committed ``BENCH_3.json``
    baseline exactly, so its simulated sections gate this run. Running at
    other parameters (e.g. a tiny CI smoke) skips the baseline diff and
    records why.

    Beyond the profile workloads, ``workloads`` may name ``cluster`` (the
    sharded workload run at ``jobs=1`` and ``jobs=N``, whose reports must
    be identical and whose parallel wall-clock ratio is gated by
    ``min_parallel_speedup``). That gate defaults to 0 — wall-clock on
    shared CI hosts (often single-core) is evidence, not simulated truth;
    the identity gate always applies.
    """
    if not workloads:
        raise ConfigError("bench needs at least one workload")
    unknown = [w for w in workloads if w not in PROFILE_WORKLOADS and w != "cluster"]
    if unknown:
        raise ConfigError(f"unknown bench workloads {unknown}")
    params = {
        "intervals": intervals,
        "txns_per_query": txns_per_query,
        "scale": scale,
        "seed": seed,
        "defrag_period": defrag_period,
        "queries": list(queries),
    }

    runs: Dict[str, Dict[str, object]] = {}
    cluster_run: Optional[ClusterRun] = None
    for workload in workloads:
        if workload == "cluster":
            cluster_run = _run_cluster_compare(
                shards=cluster_shards,
                jobs=jobs,
                intervals=intervals,
                txns_per_query=txns_per_query,
                scale=scale,
                seed=seed,
                defrag_period=defrag_period,
            )
            continue
        runs[workload] = run_profile(
            workload=PROFILE_WORKLOADS[workload], tag=tag, **params
        ).bench

    baseline_tag: Optional[str] = None
    baseline_workload: Optional[str] = None
    baseline_compared = False
    baseline_drift: List[str] = []
    if baseline_path:
        with open(baseline_path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        baseline_tag = str(baseline.get("tag"))
        baseline_workload = str(baseline.get("workload"))
        match = runs.get(baseline_workload)
        if match is not None and baseline.get("params") == params:
            baseline_compared = True
            baseline_drift = diff_sections(
                simulated_sections(baseline), simulated_sections(match)
            )

    result = BenchResult(
        runs=runs,
        baseline_tag=baseline_tag,
        baseline_workload=baseline_workload,
        baseline_compared=baseline_compared,
        baseline_drift=baseline_drift,
        min_parallel_speedup=min_parallel_speedup,
        cluster=cluster_run,
    )
    result.snapshot = _snapshot(result, params, baseline_path, tag)
    return result


#: Host measurements each profile run carries (wall-clock, RSS).
_RUN_HOST_KEYS = ("wall_clock", "wall_clock_s", "peak_rss_bytes")

#: Snapshot keys that record host wall-clock (or derive from it) and so
#: cannot be byte-stable across hosts. Everything else in a bench
#: snapshot is simulated truth and must regenerate identically.
_HOST_KEYS = _RUN_HOST_KEYS + ("parallel_speedup",)


def _snapshot(
    result: BenchResult,
    params: Dict[str, object],
    baseline_path: Optional[str],
    tag: str,
) -> Dict[str, object]:
    """The machine-readable ``BENCH_<tag>.json`` comparison snapshot."""
    return {
        "bench_compare_version": BENCH_COMPARE_VERSION,
        "tag": tag,
        "params": params,
        "baseline": {
            "path": baseline_path,
            "tag": result.baseline_tag,
            "workload": result.baseline_workload,
            "compared": result.baseline_compared,
            "simulated_drift": result.baseline_drift,
        },
        "workloads": {
            workload: {key: bench.get(key) for key in SIM_SECTIONS + _RUN_HOST_KEYS}
            for workload, bench in result.runs.items()
        },
        "cluster": (
            None
            if result.cluster is None
            else {
                "shards": result.cluster.shards,
                "jobs": result.cluster.jobs,
                "report": result.cluster.report,
                "jobs_drift": result.cluster.jobs_drift,
                "wall_clock": {
                    "jobs1_s": round(result.cluster.sequential_s, 6),
                    f"jobs{result.cluster.jobs}_s": round(
                        result.cluster.parallel_s, 6
                    ),
                },
                "parallel_speedup": round(result.cluster.parallel_speedup, 2),
            }
        ),
        "gates": {
            "min_parallel_speedup": result.min_parallel_speedup,
            "baseline_drift_free": not result.baseline_drift,
            "parallel_speedup_ok": result.parallel_speedup_ok,
            "passed": result.passed,
        },
    }


def deterministic_snapshot(snapshot: Dict[str, object]) -> Dict[str, object]:
    """The host-independent subset of a bench comparison snapshot.

    Strips wall-clock timings, RSS and the parallel speedup, plus the
    gate outcomes that depend on them — what remains (simulated
    sections, drift lists, gate parameters) must be byte-identical when
    the snapshot is regenerated with the same parameters on any host. CI
    regenerates ``BENCH_5.json`` and ``BENCH_10.json`` and compares this
    subset.
    """

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in _HOST_KEYS}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    out = strip(snapshot)
    gates = out.get("gates")
    if isinstance(gates, dict):
        for key in ("parallel_speedup_ok", "passed"):
            gates.pop(key, None)
    return out


def span_before_after(
    baseline: Dict[str, object], bench: Dict[str, object]
) -> List[Tuple[str, float, float]]:
    """Per-span (name, baseline self-time, current self-time) rows.

    Both numbers are *simulated* nanoseconds from the tracer — under a
    passing run they are equal; any difference is drift the gates report.
    """
    base_spans: Dict[str, Dict] = baseline.get("spans", {})  # type: ignore[assignment]
    cur_spans: Dict[str, Dict] = bench.get("spans", {})  # type: ignore[assignment]
    rows = []
    for name in sorted(set(base_spans) | set(cur_spans)):
        before = float(base_spans.get(name, {}).get("self_ns", 0.0))
        after = float(cur_spans.get(name, {}).get("self_ns", 0.0))
        rows.append((name, before, after))
    return rows
