"""Command-line experiment runner.

Regenerate any of the paper's figures (or the ablations) by its
``repro.experiments.figures.FIGURES`` id::

    python -m repro.experiments fig8a
    python -m repro.experiments fig9b fig10 headline a1
    python -m repro.experiments all

Each figure prints its table and its paper anchors; see EXPERIMENTS.md
for the paper-vs-measured discussion.

Figure runs can leave a machine-readable telemetry trail::

    python -m repro.experiments fig9a --metrics-out fig9a.json
    python -m repro.experiments report-metrics fig9a.json
    python -m repro.experiments report-metrics --csv fig9a.json

The fault sweep runs a workload under seeded faults for every (rates
row, seed) cell and audits it — invariants, 2PC atomicity on the
cluster, recovery against a never-crashed reference for WAL crashes::

    python -m repro.experiments fault-sweep --seed 1 2 3 \\
        --rates drop_launch=0.05,forced_abort=0.1
    python -m repro.experiments fault-sweep --workload cluster --seed 1 2 3
    python -m repro.experiments fault-sweep --workload crash --seed 1 2 3 \\
        --out crash-sweep.json

The multi-tenant serving layer (admission control, adaptive HTAP
scheduler, per-tenant SLOs) runs deterministic simulated-time serving::

    python -m repro.experiments serve --tenants 4 --policy batched --seed 7
    python -m repro.experiments serve --ablation --out ablation.json

The roofline sweep benchmarks every registered hardware substrate and
attributes each operator to its bottleneck::

    python -m repro.experiments roofline
    python -m repro.experiments roofline --substrates ddr5 hbm3 --out roofline.json

Figures can also run on any registered substrate instead of the default
DIMM system::

    python -m repro.experiments fig9a fig11b --substrate hbm3

The sharded cluster sweeps shard-count scaling and 2PC overhead::

    python -m repro.experiments cluster --shards 1 2 4 --check
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict

from repro import telemetry
from repro.experiments.figures import FIGURES, render
from repro.report import format_percent, format_table, format_time_ns
from repro.telemetry import export as telemetry_export


def report_metrics(argv) -> int:
    """``report-metrics``: pretty-print a telemetry JSON dump."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments report-metrics",
        description="Render a telemetry dump produced by --metrics-out.",
    )
    parser.add_argument("path", help="metrics JSON file to render")
    parser.add_argument(
        "--csv", action="store_true", help="emit flat CSV instead of tables"
    )
    args = parser.parse_args(argv)
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            registry = telemetry_export.from_json(fh.read())
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc.strerror}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {args.path} is not a telemetry JSON dump: {exc}", file=sys.stderr)
        return 2
    if args.csv:
        print(telemetry_export.to_csv(registry), end="")
    else:
        print(telemetry_export.render_report(registry))
    return 0


def profile(argv) -> int:
    """``profile``: trace one workload and print its bottleneck report."""
    import os

    from repro.trace.chrome import to_chrome_json
    from repro.trace.flame import to_folded
    from repro.trace.profile import run_profile

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments profile",
        description=(
            "Run one workload under the structured tracer; write a Chrome "
            "trace (Perfetto-loadable) and folded flamegraph stacks, and "
            "print a ranked bottleneck report in simulated time."
        ),
    )
    parser.add_argument(
        "--workload",
        choices=["tpcc", "ch", "mixed"],
        default="mixed",
        help="workload mix to trace",
    )
    parser.add_argument(
        "--model",
        choices=["pushtap", "original"],
        default="pushtap",
        help="memory controller variant under test",
    )
    parser.add_argument(
        "--intervals", type=int, default=4, help="query intervals (or query count)"
    )
    parser.add_argument(
        "--txns-per-query", type=int, default=25, help="transactions per interval"
    )
    parser.add_argument("--scale", type=float, default=2e-5, help="CH-benCH scale")
    parser.add_argument(
        "--defrag-period", type=int, default=200, help="transactions between defrags"
    )
    parser.add_argument("--seed", type=int, default=11, help="workload seed")
    parser.add_argument(
        "--out-dir", default=".", help="directory for trace.json / flame.folded"
    )
    parser.add_argument(
        "--top", type=int, default=10, help="bottleneck rows to print"
    )
    parser.add_argument(
        "--max-samples",
        type=int,
        default=4096,
        help="histogram sample bound (bounded/decimating mode)",
    )
    parser.add_argument(
        "--no-per-unit-spans",
        action="store_true",
        help="skip per-PIM-unit detail spans (smaller trace)",
    )
    args = parser.parse_args(argv)
    result = run_profile(
        workload=args.workload,
        model=args.model,
        intervals=args.intervals,
        txns_per_query=args.txns_per_query,
        scale=args.scale,
        seed=args.seed,
        defrag_period=args.defrag_period,
        max_histogram_samples=args.max_samples,
        per_unit_spans=not args.no_per_unit_spans,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    trace_path = os.path.join(args.out_dir, "trace.json")
    flame_path = os.path.join(args.out_dir, "flame.folded")
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(to_chrome_json(result.tracer))
    with open(flame_path, "w", encoding="utf-8") as fh:
        fh.write(to_folded(result.tracer))
    print(result.report.render(top=args.top))
    sim = result.sections["simulated"]
    print(
        f"\nsimulated: {format_time_ns(sim['time_ns'])} "
        f"({sim['transactions']} txns, {sim['queries']} queries, "
        f"tpmC {sim['oltp_tpmc']:,.0f}, QphH {sim['olap_qphh']:,.0f})"
    )
    print(f"\ntrace written to {trace_path} (load in https://ui.perfetto.dev)")
    print(f"folded stacks written to {flame_path}")
    return 0


def roofline(argv) -> int:
    """``roofline``: substrate bandwidth ceilings vs achieved operators."""
    from repro.bench.micro import DEFAULT_SIZES
    from repro.bench.roofline import (
        DEFAULT_OPERATOR_SIZES,
        render_roofline,
        run_roofline,
    )
    from repro.pim.substrate import available_substrates

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments roofline",
        description=(
            "Sweep PrIM-style single-unit microbenchmarks and the end-to-"
            "end OLAP operators across hardware substrates, classify each "
            "operator as memory/compute/control-bound against the "
            "substrate's bandwidth ceilings, cross-check the accounting "
            "against the exported Chrome trace, and optionally write the "
            "snapshot as JSON."
        ),
    )
    parser.add_argument(
        "--substrates",
        nargs="+",
        choices=available_substrates(),
        default=None,
        help="substrates to sweep (default: all registered)",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_OPERATOR_SIZES),
        help="table sizes (rows) for the end-to-end operator sweep",
    )
    parser.add_argument(
        "--micro-sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_SIZES),
        help="operand sizes (rows) for the single-unit microbenchmarks",
    )
    parser.add_argument(
        "--block-rows", type=int, default=256, help="storage block size (rows)"
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the roofline snapshot to PATH as JSON",
    )
    args = parser.parse_args(argv)
    if args.out and not _writable(args.out):
        return 2
    snapshot = run_roofline(
        args.substrates,
        sizes=args.sizes,
        micro_sizes=args.micro_sizes,
        block_rows=args.block_rows,
    )
    print(render_roofline(snapshot))
    if args.out:
        _dump(args.out, snapshot, "roofline snapshot")
    if not all(check["ok"] for check in snapshot["trace_check"].values()):
        print(
            "FAIL: trace-derived bandwidth disagrees with operator accounting",
            file=sys.stderr,
        )
        return 1
    return 0


def _writable(path: str) -> bool:
    """Fail fast on an unwritable output path rather than after the runs."""
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def _dump(path: str, value, what: str) -> None:
    """Write ``value`` to ``path`` as indented, key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\n{what} written to {path}")


def _format_stat(key: str, value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, dict):
        return str(sum(value.values()))
    if key.endswith("_degradation"):
        return format_percent(value)
    if isinstance(value, float):
        return f"{value:,.0f}"
    return str(value)


def fault_sweep(argv) -> int:
    """``fault-sweep``: the fault grid, rate rows x seeds, one workload."""
    from repro.errors import ConfigError
    from repro.faults.plan import FaultRates
    from repro.faults.sweep import DEFAULT_ROWS, WORKLOADS, check_row, run_fault_sweep

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments fault-sweep",
        description=(
            "Run one workload under seeded fault injection for every "
            "(rates row, seed) cell and audit it: mixed/serve/cluster "
            "compare a faulted run with a clean one (cluster adds the 2PC "
            "atomicity audit); crash kills a WAL-enabled run, recovers it "
            "and compares Q1/Q6/Q9 with a never-crashed reference. Exits 1 "
            "if any cell raised or violated an audit."
        ),
    )
    parser.add_argument(
        "--workload", choices=list(WORKLOADS), default="mixed",
        help="workload each cell drives",
    )
    parser.add_argument(
        "--rates", nargs="+", metavar="SPEC", default=None,
        help=(
            "one grid row per comma-separated hook=rate spec (see "
            "repro.faults.plan.HOOKS; default: the workload's rows in "
            "repro.faults.sweep.DEFAULT_ROWS)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, nargs="+", default=[1],
        help="fault/workload seed(s); every row runs every seed",
    )
    parser.add_argument(
        "--intervals", type=int, help="query intervals per run (not serve)"
    )
    parser.add_argument(
        "--txns-per-query", type=int,
        help="transactions per interval (serve: requests per tenant)",
    )
    parser.add_argument("--scale", type=float, help="CH-benCH scale")
    parser.add_argument(
        "--defrag-period", type=int, help="transactions between defrags"
    )
    parser.add_argument(
        "--controller", dest="controller_kind", choices=["pushtap", "original"],
        help="memory controller variant under test",
    )
    parser.add_argument("--shards", type=int, help="shard count (cluster only)")
    parser.add_argument(
        "--checkpoint-every", type=int,
        help="commits between checkpoint spills, 0 disables (crash only)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="enable telemetry and dump collected metrics to PATH as JSON",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write every cell to PATH as JSON",
    )
    args = parser.parse_args(argv)
    params = {
        name: getattr(args, name)
        for name in (
            "intervals", "txns_per_query", "scale", "defrag_period",
            "controller_kind", "shards", "checkpoint_every",
        )
        if getattr(args, name) is not None
    }
    for name, takers in (
        ("intervals", ("mixed", "cluster", "crash")),
        ("shards", ("cluster",)),
        ("checkpoint_every", ("crash",)),
    ):
        if name in params and args.workload not in takers:
            parser.error(
                f"--{name.replace('_', '-')} does not apply to --workload "
                f"{args.workload}"
            )
    specs = args.rates if args.rates is not None else DEFAULT_ROWS[args.workload]
    try:
        rows = [FaultRates.parse(spec) for spec in specs]
        for rates in rows:
            check_row(args.workload, rates)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not all(_writable(path) for path in (args.metrics_out, args.out) if path):
        return 2

    registry = telemetry.enable() if args.metrics_out else None
    try:
        cells = [
            (spec, run_fault_sweep(seed, rates, args.workload, **params))
            for spec, rates in zip(specs, rows)
            for seed in args.seed
        ]
        if registry is not None:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(telemetry_export.to_json(registry))
    finally:
        if registry is not None:
            telemetry.disable()

    stats_keys = list(dict.fromkeys(key for _, cell in cells for key in cell.stats))
    print(format_table(
        [
            "rates", "seed", "plan", "survived", "injected", "detected",
            "retries", "checks", "violations", *stats_keys,
        ],
        [
            [
                spec,
                cell.seed,
                cell.plan_hash[:12],
                "yes" if cell.survived else "NO",
                sum(cell.injected.values()),
                sum(cell.detected.values()),
                cell.retries,
                cell.checks,
                len(cell.violations),
                *(_format_stat(key, cell.stats.get(key)) for key in stats_keys),
            ]
            for spec, cell in cells
        ],
    ))
    for spec, cell in cells:
        for failure in ([cell.error] if cell.error else []) + cell.violations:
            print(f"{spec} seed {cell.seed}: {failure}", file=sys.stderr)
    survived = sum(cell.survived for _, cell in cells)
    print(f"\n{survived}/{len(cells)} cells survived")
    if args.out:
        report = {
            "workload": args.workload,
            "rows": list(specs),
            "seeds": list(args.seed),
            "params": params,
            "cells": [cell.as_dict() for _, cell in cells],
            "survived": survived,
            "total": len(cells),
        }
        _dump(args.out, report, "report")
    if registry is not None:
        print(f"metrics written to {args.metrics_out}")
    return 0 if survived == len(cells) else 1


def serve(argv) -> int:
    """``serve``: the multi-tenant serving loop (or the policy ablation)."""
    from repro.serve.loop import ServeConfig
    from repro.serve.runner import run_ivm_ablation, run_policy_ablation, run_serve
    from repro.serve.scheduler import POLICIES
    from repro.serve.slo import SLOTargets

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve",
        description=(
            "Serve N tenants through the admission controller and adaptive "
            "HTAP scheduler over simulated time; print (and optionally "
            "write) the per-tenant SLO report. --ablation sweeps arrival "
            "rate x scheduler policy instead."
        ),
    )
    parser.add_argument("--tenants", type=int, default=4, help="client sessions")
    parser.add_argument(
        "--requests", type=int, default=64, help="requests per tenant"
    )
    parser.add_argument(
        "--policy",
        choices=list(POLICIES),
        default="batched",
        help="HTAP scheduler policy",
    )
    parser.add_argument("--seed", type=int, default=7, help="run seed")
    parser.add_argument(
        "--arrival",
        choices=["open", "closed"],
        default="open",
        help="open-loop Poisson or closed-loop think-time arrivals",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=50_000.0,
        help="open-loop arrival rate per tenant (req/s, simulated)",
    )
    parser.add_argument(
        "--think-ns",
        type=float,
        default=20_000.0,
        help="closed-loop mean think time (ns)",
    )
    parser.add_argument(
        "--olap-fraction",
        type=float,
        default=0.1,
        help="fraction of requests that are analytical queries",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=16, help="per-tenant admission bound"
    )
    parser.add_argument(
        "--bucket-rate",
        type=float,
        default=0.0,
        help="token-bucket rate per tenant (req/s; 0 disables)",
    )
    parser.add_argument(
        "--batch-threshold", type=int, default=4, help="OLAP batch trigger depth"
    )
    parser.add_argument(
        "--freshness-sla",
        type=int,
        default=64,
        help="freshness policy: max committed txns of snapshot staleness",
    )
    parser.add_argument(
        "--slo-oltp-ns",
        type=float,
        default=200_000.0,
        help="per-transaction end-to-end latency target (ns)",
    )
    parser.add_argument(
        "--slo-olap-ns",
        type=float,
        default=50_000_000.0,
        help="per-query end-to-end latency target (ns)",
    )
    parser.add_argument("--scale", type=float, default=2e-5, help="CH-benCH scale")
    parser.add_argument(
        "--controller",
        choices=["pushtap", "original"],
        default="pushtap",
        help="memory controller variant under test",
    )
    parser.add_argument(
        "--ablation",
        action="store_true",
        help=(
            "run the arrival-rate x policy sweep plus the incremental-vs-"
            "rescan sweep instead of one run"
        ),
    )
    parser.add_argument(
        "--ivm",
        action="store_true",
        help=(
            "maintain incremental views; the scheduler answers flushes by "
            "folding deltas when that beats a full rescan"
        ),
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the machine-readable JSON report to PATH",
    )
    args = parser.parse_args(argv)
    if args.out and not _writable(args.out):
        return 2

    if args.ablation:
        report = run_policy_ablation(
            seed=args.seed,
            tenants=args.tenants,
            requests_per_tenant=args.requests,
            olap_fraction=max(args.olap_fraction, 0.05),
            scale=args.scale,
        )
        print(format_table(
            [
                "rate/tenant", "policy", "QphH", "tpmC", "batches",
                "handovers", "saved", "max stale",
            ],
            [
                [
                    f"{c['rate_per_tenant']:,.0f}",
                    c["policy"],
                    f"{c['olap_qphh']:,.0f}",
                    f"{c['oltp_tpmc']:,.0f}",
                    c["olap_batches"],
                    c["handovers"],
                    c["handovers_saved"],
                    c["max_staleness_txns"],
                ]
                for c in report["cells"]
            ],
        ))
        ivm_report = run_ivm_ablation(
            seed=args.seed,
            tenants=args.tenants,
            requests_per_tenant=args.requests,
            olap_fraction=max(args.olap_fraction, 0.05),
            scale=args.scale,
        )
        report["ivm"] = ivm_report
        print()
        print(format_table(
            [
                "rate/tenant", "mode", "QphH", "tpmC", "ivm flushes",
                "rescan flushes", "max stale", "max snap lag",
            ],
            [
                [
                    f"{c['rate_per_tenant']:,.0f}",
                    c["mode"],
                    f"{c['olap_qphh']:,.0f}",
                    f"{c['oltp_tpmc']:,.0f}",
                    c["ivm_flushes"],
                    c["rescan_flushes"],
                    c["max_staleness_txns"],
                    format_time_ns(c["max_snapshot_lag_ns"]),
                ]
                for c in ivm_report["cells"]
            ],
        ))
        for delta in ivm_report["deltas"]:
            print(
                f"rate {delta['rate_per_tenant']:,.0f}: incremental QphH "
                f"{delta['olap_qphh_ratio']:.3f}x rescan "
                f"({delta['olap_qphh_delta']:+,.0f}), max-staleness delta "
                f"{delta['max_staleness_delta']:+d} txns, max snapshot-lag "
                f"delta {delta['max_snapshot_lag_delta_ns']:+,.0f} ns"
            )
        failed = any(
            c["slo_errors"] for c in report["cells"] + ivm_report["cells"]
        )
    else:
        config = ServeConfig(
            tenants=args.tenants,
            requests_per_tenant=args.requests,
            policy=args.policy,
            seed=args.seed,
            arrival=args.arrival,
            rate_per_tenant=args.rate,
            think_ns=args.think_ns,
            olap_fraction=args.olap_fraction,
            queue_depth=args.queue_depth,
            bucket_rate=args.bucket_rate,
            batch_threshold=args.batch_threshold,
            freshness_sla_txns=args.freshness_sla,
            ivm=args.ivm,
            slo=SLOTargets(oltp_ns=args.slo_oltp_ns, olap_ns=args.slo_olap_ns),
        )
        result = run_serve(
            config, scale=args.scale, controller_kind=args.controller
        )
        report = result.report
        admission = report["admission"]
        print(format_table(
            [
                "tenant", "completed", "rejected", "p50", "p95", "p99",
                "violations", "disconnects",
            ],
            [
                [
                    tenant,
                    t["completed"],
                    t["rejected"],
                    format_time_ns(t["oltp"]["p50_ns"]),
                    format_time_ns(t["oltp"]["p95_ns"]),
                    format_time_ns(t["oltp"]["p99_ns"]),
                    t["violations"]["oltp"] + t["violations"]["olap"],
                    t["disconnected"],
                ]
                for tenant, t in report["tenants"].items()
            ],
        ))
        sched = report["scheduler"]
        fresh = report["freshness"]
        print(
            f"\npolicy {sched['policy']}: {sched['oltp_dispatched']} txns, "
            f"{sched['olap_dispatched']} queries in {sched['olap_batches']} "
            f"batch(es); handovers {sched['handovers']} "
            f"(saved {sched['handovers_saved']})"
        )
        if sched["ivm"]["enabled"]:
            print(
                f"ivm: {sched['ivm']['ivm_flushes']} delta flush(es) "
                f"({sched['ivm']['ivm_queries']} queries), "
                f"{sched['ivm']['rescan_flushes']} rescan flush(es)"
            )
        print(
            f"admission: {admission['admitted']}/{admission['submitted']} "
            f"admitted, {admission['rejected']} rejected "
            f"{admission['rejected_by_reason'] or ''}"
        )
        print(
            f"freshness: max staleness {fresh['max_staleness_txns']} txns, "
            f"mean query lag {fresh['lag_txns']['mean']:.1f} txns"
        )
        print(
            f"throughput: tpmC {report['throughput']['oltp_tpmc']:,.0f}, "
            f"QphH {report['throughput']['olap_qphh']:,.0f} over "
            f"{format_time_ns(report['simulated_time_ns'])} simulated"
        )
        failed = bool(report["slo_errors"])
        for err in report["slo_errors"]:
            print(f"SLO ACCOUNTING ERROR: {err}", file=sys.stderr)

    if args.out:
        _dump(args.out, report, "report")
    return 1 if failed else 0


def cluster_cli(argv) -> int:
    """``cluster``: shard-count scaling and 2PC overhead."""
    from repro.experiments.cluster import (
        DEFAULT_REMOTE_FRACTIONS,
        DEFAULT_SHARD_COUNTS,
        run_cluster_bench,
    )
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments cluster",
        description=(
            "Sweep the sharded cluster over shard count (fixed data, fixed "
            "tenant streams) and remote-warehouse fraction; optionally "
            "write the snapshot as JSON. --check gates near-linear tpmC "
            "scaling."
        ),
    )
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=list(DEFAULT_SHARD_COUNTS),
        help="shard counts to sweep (1 is always included as the baseline)",
    )
    parser.add_argument(
        "--remote-fractions",
        type=float,
        nargs="+",
        default=list(DEFAULT_REMOTE_FRACTIONS),
        help="remote-rate multipliers for the overhead curve (1.0 = spec)",
    )
    parser.add_argument(
        "--intervals", type=int, default=4, help="query intervals per cell"
    )
    parser.add_argument(
        "--txns-per-query", type=int, default=60, help="transactions per interval"
    )
    parser.add_argument("--scale", type=float, default=2e-5, help="CH-benCH scale")
    parser.add_argument("--seed", type=int, default=11, help="workload seed")
    parser.add_argument(
        "--interconnect-ns",
        type=float,
        default=500.0,
        help="per-message cluster interconnect latency (simulated ns)",
    )
    parser.add_argument(
        "--defrag-period", type=int, default=200, help="transactions between defrags"
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the scaling snapshot to PATH as JSON",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless tpmC(N) >= min-scaling * N * tpmC(1) for every N",
    )
    parser.add_argument(
        "--min-scaling",
        type=float,
        default=0.9,
        help="per-shard scaling efficiency the --check gate requires",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for shard sub-streams (merge is "
            "deterministic: any value yields byte-identical snapshots)"
        ),
    )
    args = parser.parse_args(argv)
    if args.out and not _writable(args.out):
        return 2

    snapshot = run_cluster_bench(
        shard_counts=args.shards,
        remote_fractions=args.remote_fractions,
        intervals=args.intervals,
        txns_per_query=args.txns_per_query,
        scale=args.scale,
        seed=args.seed,
        interconnect_ns=args.interconnect_ns,
        defrag_period=args.defrag_period,
        jobs=args.jobs,
    )
    print(format_table(
        ["shards", "tpmC", "speedup", "QphH", "speedup", "cross-shard", "coord"],
        [
            [
                cell["shards"],
                f"{cell['oltp_tpmc']:,.0f}",
                f"{cell['tpmc_speedup']:.2f}x",
                f"{cell['olap_qphh']:,.0f}",
                f"{cell['qphh_speedup']:.2f}x",
                cell["cross_shard"]["attempted"],
                format_time_ns(cell["coordination_time_ns"]),
            ]
            for cell in snapshot["scaling"]
        ],
    ))
    print()
    print(format_table(
        [
            "remote frac", "tpmC", "cross-shard", "abort rate",
            "coord share", "remote OL share",
        ],
        [
            [
                f"{cell['remote_fraction']:.1f}",
                f"{cell['oltp_tpmc']:,.0f}",
                cell["cross_shard"]["attempted"],
                format_percent(cell["cross_shard"]["abort_rate"]),
                format_percent(cell["coordination_share"]),
                format_percent(
                    cell["remote"]["remote_order_lines"]
                    / max(cell["remote"]["order_lines"], 1)
                ),
            ]
            for cell in snapshot["overhead"]
        ],
    ))
    if args.out:
        _dump(args.out, snapshot, "cluster snapshot")

    if args.check:
        failed = False
        for cell in snapshot["scaling"]:
            required = args.min_scaling * cell["shards"]
            if cell["tpmc_speedup"] < required:
                print(
                    f"FAIL: {cell['shards']}-shard tpmC speedup "
                    f"{cell['tpmc_speedup']:.2f}x below required "
                    f"{required:.2f}x",
                    file=sys.stderr,
                )
                failed = True
        if failed:
            return 1
        print(
            f"scaling check passed (>= {args.min_scaling:.2f} per shard "
            f"on {snapshot['params']['shard_counts']} shards)"
        )
    return 0


#: Subcommands, each taking the rest of the command line.
SUBCOMMANDS: Dict[str, Callable[[list], int]] = {
    "report-metrics": report_metrics,
    "fault-sweep": fault_sweep,
    "profile": profile,
    "serve": serve,
    "roofline": roofline,
    "cluster": cluster_cli,
}


def main(argv=None) -> int:
    """Entry point: run a subcommand, or the named experiments (or ``all``)."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])

    from repro.pim.substrate import available_substrates, get_substrate

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=list(FIGURES) + ["all"],
        help=(
            "figure ids to regenerate (all: every figure, in paper order); "
            "or one subcommand with its own "
            f"--help: {', '.join(SUBCOMMANDS)}"
        ),
    )
    parser.add_argument(
        "--substrate",
        choices=available_substrates(),
        default=None,
        help=(
            "run the figures on a registered hardware substrate instead of "
            "each figure's default system (HBM comparison rows keep HBM)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="enable telemetry and dump collected metrics to PATH as JSON",
    )
    args = parser.parse_args(argv)
    config = get_substrate(args.substrate).config if args.substrate else None
    names = list(FIGURES) if "all" in args.experiments else args.experiments
    if args.metrics_out and not _writable(args.metrics_out):
        return 2
    registry = telemetry.enable() if args.metrics_out else None
    try:
        for name in names:
            print()
            print(render(name, FIGURES[name].points(config)))
        if registry is not None:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(telemetry_export.to_json(registry))
            print(f"\nmetrics written to {args.metrics_out}")
    finally:
        if registry is not None:
            telemetry.disable()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(141)
