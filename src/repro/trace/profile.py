"""Profile runner: workload → trace + bottleneck report + simulated sections.

:func:`run_profile` builds an engine, runs a chosen workload under a
recording telemetry registry (with per-unit detail spans turned on),
and returns everything the ``profile`` CLI subcommand writes out or
prints: the tracer, the bottleneck analysis, and the run's simulated
sections (throughput, counters, per-span and per-track time, critical
path), which ``baselines/profile.json`` pins.
The ``mixed`` workload is the batch driver over the engine as a
one-shard cluster; ``tpcc`` and ``ch`` are plain loops.

Every number here is on the simulated clock. What the host pays to run
the simulator is measured by ``benchmarks/e2e``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.cluster import ClusterWorkload, PushTapCluster
from repro.core.engine import PushTapEngine
from repro.errors import ConfigError
from repro.telemetry import registry as telemetry
from repro.telemetry.registry import MetricsRegistry
from repro.trace.analysis import BottleneckReport, analyze
from repro.trace.tracer import Tracer
from repro.units import qphh, tpmc

__all__ = ["ProfileResult", "run_profile"]

_WORKLOADS = ("tpcc", "ch", "mixed")
_MODELS = ("pushtap", "original")


@dataclass
class ProfileResult:
    """Everything one profiling run produced."""

    registry: MetricsRegistry
    tracer: Tracer
    report: BottleneckReport
    #: ``simulated``, ``counters``, ``spans``, ``tracks``, ``critical_path_ns``.
    sections: Dict[str, object]


def run_profile(
    workload: str = "mixed",
    model: str = "pushtap",
    intervals: int = 4,
    txns_per_query: int = 25,
    scale: float = 2e-5,
    seed: int = 11,
    defrag_period: int = 200,
    queries: Sequence[str] = ("Q1", "Q6", "Q9"),
) -> ProfileResult:
    """Run one instrumented workload and analyse its trace.

    ``workload`` picks the mix: ``tpcc`` runs only transactions
    (``intervals × txns_per_query`` of them), ``ch`` runs only the
    analytical queries (``intervals`` of them, cycling ``queries``),
    and ``mixed`` interleaves both through the batch driver,
    :class:`~repro.cluster.workload.ClusterWorkload`, over the engine as
    a one-shard cluster. ``model`` selects the controller (``pushtap``
    or ``original``, the Fig. 12b pair).
    """
    if workload not in _WORKLOADS:
        raise ConfigError(f"unknown workload {workload!r} (one of {_WORKLOADS})")
    if model not in _MODELS:
        raise ConfigError(f"unknown model {model!r} (one of {_MODELS})")
    if intervals < 1:
        raise ConfigError("intervals must be >= 1")

    engine = PushTapEngine.build(
        scale=scale,
        seed=seed,
        controller_kind=model,
        defrag_period=defrag_period,
    )
    registry = MetricsRegistry()
    registry.roofline = True
    telemetry.install(registry)
    try:
        simulated = _run_workload(
            engine, workload, intervals, txns_per_query, queries, seed
        )
    finally:
        telemetry.disable()

    tracer = Tracer(registry.spans)
    report = analyze(tracer)
    sections: Dict[str, object] = {
        "simulated": simulated,
        "spans": {
            name: stats.as_dict() for name, stats in sorted(report.names.items())
        },
        "tracks": {
            track: stats.as_dict() for track, stats in sorted(report.tracks.items())
        },
        "critical_path_ns": report.critical_path_time,
        "counters": {n: c.value for n, c in sorted(registry.counters.items())},
    }
    return ProfileResult(
        registry=registry, tracer=tracer, report=report, sections=sections
    )


def _run_workload(
    engine: PushTapEngine,
    workload: str,
    intervals: int,
    txns_per_query: int,
    queries: Sequence[str],
    seed: int,
) -> Dict[str, object]:
    """Drive the engine; returns the ``simulated`` section."""
    if workload == "mixed":
        rep = ClusterWorkload(
            PushTapCluster([engine], engine.table_counts()),
            txns_per_query=txns_per_query,
            queries=queries,
            seed=seed,
        ).run(intervals)
        return {
            "time_ns": rep.simulated_time,
            "transactions": rep.transactions,
            "aborted": rep.aborted,
            "queries": rep.queries,
            "defrag_runs": engine.stats.defrag_runs,
            "oltp_tpmc": rep.oltp_tpmc,
            "olap_qphh": rep.olap_qphh,
        }
    # The plain loops read the fresh engine's own counters.
    stats = engine.stats
    if workload == "tpcc":
        driver = engine.make_driver(seed=seed)
        count = intervals * txns_per_query
        for _ in range(count):
            engine.execute_transaction(driver.next_transaction())
        time_ns = stats.oltp_time + stats.defrag_time
        return {
            "time_ns": time_ns,
            "transactions": count,
            "aborted": engine.oltp.aborted,
            "queries": 0,
            "defrag_runs": stats.defrag_runs,
            "oltp_tpmc": tpmc(stats.transactions, time_ns),
            "olap_qphh": 0.0,
        }
    # workload == "ch": analytical queries only.
    for i in range(intervals):
        engine.query(queries[i % len(queries)])
    time_ns = stats.olap_time + stats.defrag_time
    return {
        "time_ns": time_ns,
        "transactions": 0,
        "aborted": 0,
        "queries": intervals,
        "defrag_runs": stats.defrag_runs,
        "oltp_tpmc": 0.0,
        "olap_qphh": qphh(intervals, time_ns),
    }
