"""The ``cluster`` experiment: shard-count scaling and 2PC overhead.

Sweeps the sharded cluster along two axes into one snapshot, which
``baselines/cluster_scaling.json`` pins:

* **scaling** — shard count 1..N at the TPC-C-spec remote rates
  (``remote_fraction=1.0``, ~1 % remote New-Order lines / 15 % remote
  Payments, of which only the cross-*shard* subset pays 2PC). Every
  cell runs the *same* global row counts and the same tenant streams —
  the 1-shard cell executes the identical workload on one engine — so
  the tpmC ratio is a pure partitioning speedup. ``cluster --check``
  and the baseline tests require ``tpmC(N) >= 0.9 * N * tpmC(1)``.
* **overhead** — remote-fraction sweep at the maximum shard count,
  charting how tpmC and the coordination share degrade as more
  transactions cross shards (the classic distributed-OLTP overhead
  curve).

Every number in the snapshot is simulated (no wall-clock, no
timestamps), so regenerating it with the same arguments is bit-for-bit
reproducible at any ``jobs``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.cluster import PushTapCluster, ClusterWorkload, cluster_row_counts
from repro.errors import ConfigError

__all__ = ["run_cluster_bench", "DEFAULT_SHARD_COUNTS", "DEFAULT_REMOTE_FRACTIONS"]

DEFAULT_SHARD_COUNTS = (1, 2, 4)
DEFAULT_REMOTE_FRACTIONS = (0.0, 1.0, 2.0, 4.0)


def _run_cell(
    shards: int,
    counts: Dict[str, int],
    tenants: int,
    remote_fraction: float,
    intervals: int,
    txns_per_query: int,
    seed: int,
    interconnect_ns: float,
    defrag_period: int,
    jobs: int = 1,
) -> Dict[str, object]:
    cluster = PushTapCluster.build(
        shards=shards,
        counts=counts,
        seed=seed,
        interconnect_ns=interconnect_ns,
        defrag_period=defrag_period,
        block_rows=256,
        # Long streams append many ORDERLINE/HISTORY rows; size the
        # insert capacity to the stream (the fig11 idiom).
        extra_rows=12 * intervals * txns_per_query,
    )
    report = ClusterWorkload(
        cluster,
        txns_per_query=txns_per_query,
        seed=seed,
        remote_fraction=remote_fraction,
        tenants=tenants,
        # Statistically identical tenant streams, pinned to the same
        # warehouse groups in every cell: each cell then draws literally
        # the same transactions, so the measured speedup isolates
        # partitioning overhead from client-mix variance.
        homogeneous_tenants=True,
        warehouse_groups=tenants,
        # Parallel shard execution is merge-deterministic (byte-identical
        # to jobs=1), so the snapshot stays reproducible at any job count.
        jobs=min(jobs, shards),
    ).run(intervals)
    return report.as_dict()


def run_cluster_bench(
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    remote_fractions: Sequence[float] = DEFAULT_REMOTE_FRACTIONS,
    intervals: int = 4,
    txns_per_query: int = 60,
    scale: float = 2e-5,
    seed: int = 11,
    interconnect_ns: float = 500.0,
    defrag_period: int = 200,
    jobs: int = 1,
) -> Dict[str, object]:
    """Run the scaling and overhead sweeps; returns the snapshot dict.

    The row counts are derived once for the *largest* shard count and
    pinned across every cell, and every cell serves the same
    ``max(shard_counts)`` tenant streams — so cells differ only in how
    many engines the same work is partitioned over.
    """
    shard_counts = sorted(set(int(n) for n in shard_counts))
    if not shard_counts or shard_counts[0] < 1:
        raise ConfigError("shard_counts must be positive")
    if 1 not in shard_counts:
        # The scaling ratios are relative to the 1-shard cell; always
        # include it rather than silently normalizing to something else.
        shard_counts = [1] + shard_counts
    max_shards = shard_counts[-1]
    tenants = max_shards
    counts = cluster_row_counts(scale, max_shards)

    scaling: List[Dict[str, object]] = []
    for shards in shard_counts:
        cell = _run_cell(
            shards,
            counts,
            tenants,
            1.0,
            intervals,
            txns_per_query,
            seed,
            interconnect_ns,
            defrag_period,
            jobs,
        )
        scaling.append(cell)
    base_tpmc = scaling[0]["oltp_tpmc"]
    base_qphh = scaling[0]["olap_qphh"]
    for cell in scaling:
        cell["tpmc_speedup"] = (
            cell["oltp_tpmc"] / base_tpmc if base_tpmc else 0.0
        )
        cell["qphh_speedup"] = (
            cell["olap_qphh"] / base_qphh if base_qphh else 0.0
        )

    overhead: List[Dict[str, object]] = []
    for fraction in remote_fractions:
        cell = _run_cell(
            max_shards,
            counts,
            tenants,
            float(fraction),
            intervals,
            txns_per_query,
            seed,
            interconnect_ns,
            defrag_period,
            jobs,
        )
        cell["coordination_share"] = (
            cell["coordination_time_ns"] / cell["simulated_time_ns"]
            if cell["simulated_time_ns"]
            else 0.0
        )
        overhead.append(cell)

    return {
        "params": {
            "shard_counts": list(shard_counts),
            "remote_fractions": [float(f) for f in remote_fractions],
            "intervals": intervals,
            "txns_per_query": txns_per_query,
            "scale": scale,
            "seed": seed,
            "interconnect_ns": interconnect_ns,
            "defrag_period": defrag_period,
            "counts": dict(counts),
            "tenants": tenants,
        },
        "scaling": scaling,
        "overhead": overhead,
    }
