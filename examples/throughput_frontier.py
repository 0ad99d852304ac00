#!/usr/bin/env python
"""A functional miniature of Fig. 10: the OLTP/OLAP trade-off.

Sweeps the transaction/query interleaving ratio on the functional engine
and reports the simulated tpmC/QphH operating points — the same
frontier the paper measures, at reduced scale (absolute numbers differ;
the trade-off shape is the point).
"""

from repro import PushTapEngine
from repro.cluster import ClusterWorkload, PushTapCluster
from repro.report import format_table


def main() -> None:
    rows = []
    for txns_per_query in (5, 20, 50, 150):
        engine = PushTapEngine.build(
            scale=3e-5, defrag_period=300, block_rows=256, extra_rows=30_000
        )
        # A bare engine runs through the batch driver as a one-shard cluster.
        workload = ClusterWorkload(
            PushTapCluster([engine], engine.table_counts()),
            txns_per_query=txns_per_query,
            queries=("Q1", "Q6", "Q9"),
        )
        report = workload.run(num_queries=6)
        rows.append(
            [
                txns_per_query,
                report.transactions,
                report.queries,
                f"{report.oltp_tpmc / 1e6:.2f}",
                f"{report.olap_qphh / 1e3:.1f}k",
            ]
        )
    print("Functional throughput operating points (simulated time):")
    print(
        format_table(
            ["txns/query", "txns", "queries", "OLTP (MtpmC)", "OLAP (kQphH)"],
            rows,
        )
    )
    print(
        "\nMore transactions per query interval buys OLTP throughput at the"
        "\ncost of OLAP throughput — the Fig. 10 frontier, functionally."
    )


if __name__ == "__main__":
    main()
