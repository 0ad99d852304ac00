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
scheduler, per-tenant SLOs) runs deterministic simulated-time serving;
``--ablation`` runs the pinned ``baselines/serve_ablation.json``
experiment at its defaults::

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

A parameter flag sets one parameter of the config or function a
subcommand runs (``--requests`` sets ``ServeConfig.requests_per_tenant``)
and takes its type and default from that signature, so a default is
written once, in the callee: ``roofline``, ``cluster`` and ``serve
--ablation`` with no parameter flag reproduce their ``baselines/`` rows.
A given flag the run does not take, and a refused input (a
:class:`~repro.errors.ConfigError`), exit 2 before anything runs.
"""

from __future__ import annotations

import argparse
import collections.abc
import inspect
import json
import sys
import typing
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

from repro import telemetry
from repro.errors import ConfigError
from repro.experiments.figures import FIGURES, render
from repro.report import format_percent, format_table, format_time_ns
from repro.telemetry import export as telemetry_export

#: Memory controller variants (``controller_kind`` / ``model``).
_CONTROLLERS = ("pushtap", "original")
_METRICS_OUT_HELP = "enable telemetry and dump collected metrics to PATH as JSON"


def _parameters(callee) -> Optional[Dict[str, tuple]]:
    """``callee``'s parameters as ``name -> (annotation, default)``, or
    None when it takes ``**kwargs`` and so any keyword."""
    params = inspect.signature(callee).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return None
    hints = typing.get_type_hints(callee)
    return {p.name: (hints.get(p.name), p.default) for p in params}


def _flag_type(flag: str, hint) -> Dict[str, Any]:
    """argparse keywords for a flag that sets a parameter annotated ``hint``."""
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if hint is bool:
        return {"action": "store_true"}
    if typing.get_origin(hint) in (collections.abc.Sequence, list, tuple):
        return {"nargs": "+", "type": typing.get_args(hint)[0]}
    return {"type": hint}


class _Parser(argparse.ArgumentParser):
    """A subcommand's parser whose parameter flags are derived from the
    signatures of the callables they set."""

    def __init__(self, command: str, description: str) -> None:
        super().__init__(prog=f"python -m repro.experiments {command}", description=description)
        #: Derived flags, parameter name (the dest) -> flag.
        self.derived: Dict[str, str] = {}

    def derive(self, spec: Dict[str, tuple], *callees) -> None:
        """Add one flag per ``spec`` entry, ``flag: (parameter, help[, choices])``.

        A callee is a callable or a ``(label, callable)`` pair. The flag's
        type comes from the parameter's annotation, its help ends with the
        default of every callee that takes it (per label, unless every label
        takes it with one default), and its own default is ``SUPPRESS``: an
        absent flag is not passed, so the callee's default holds.
        """
        signatures = [
            (label, params)
            for label, callee in (c if isinstance(c, tuple) else ("", c) for c in callees)
            if (params := _parameters(callee)) is not None
        ]
        labels = {label for label, _ in signatures}
        for flag, (dest, text, *choices) in spec.items():
            takers = [(label, params[dest]) for label, params in signatures if dest in params]
            defaults = {label: default for label, (_, default) in takers}
            shown = {repr(default) for default in defaults.values()}
            if len(shown) == 1 and set(defaults) == labels:
                default = shown.pop()
            else:
                default = ", ".join(f"{label} {value!r}" for label, value in defaults.items())
            self.add_argument(
                flag,
                dest=dest,
                default=argparse.SUPPRESS,
                help=f"{text} (default: {default})",
                **({"choices": choices[0]} if choices else {}),
                **_flag_type(flag, takers[0][1][0]),
            )
            self.derived[dest] = flag

    def given(self, args, *callees, where: str) -> List[Dict[str, Any]]:
        """Per callee, the derived flags given in ``args`` that it takes (all
        of them if it takes ``**kwargs``). A given flag that no callee takes
        is a usage error: it does not apply to ``where``."""
        given = {dest: getattr(args, dest) for dest in self.derived if hasattr(args, dest)}
        takes = [_parameters(callee) for callee in callees]
        for dest in given:
            if all(t is not None and dest not in t for t in takes):
                self.error(f"{self.derived[dest]} does not apply to {where}")
        return [{d: v for d, v in given.items() if t is None or d in t} for t in takes]


def _check_writable(path: Optional[str]) -> None:
    """Fail fast on an unwritable output path rather than after the runs."""
    if not path:
        return
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


@contextmanager
def _metrics(path: Optional[str]):
    """Collect telemetry in the block and dump it to ``path`` as JSON; a
    no-op without a path. The path is checked before the block runs."""
    if not path:
        yield
        return
    _check_writable(path)
    registry = telemetry.enable()
    try:
        yield
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(telemetry_export.to_json(registry))
        print(f"\nmetrics written to {path}")
    finally:
        telemetry.disable()


def _dump(path: str, value, what: str) -> None:
    """Write ``value`` to ``path`` as indented, key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\n{what} written to {path}")


def report_metrics(argv) -> int:
    """``report-metrics``: pretty-print a telemetry JSON dump."""
    parser = _Parser("report-metrics", "Render a telemetry dump produced by --metrics-out.")
    parser.add_argument("path", help="metrics JSON file to render")
    parser.add_argument("--csv", action="store_true", help="emit flat CSV instead of tables")
    args = parser.parse_args(argv)
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            registry = telemetry_export.from_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read {args.path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(f"{args.path} is not a telemetry JSON dump: {exc}") from None
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

    parser = _Parser(
        "profile",
        "Run one workload under the structured tracer; write a Chrome "
        "trace (Perfetto-loadable) and folded flamegraph stacks, and "
        "print a ranked bottleneck report in simulated time.",
    )
    parser.derive({
        "--workload": ("workload", "workload mix to trace", ["tpcc", "ch", "mixed"]),
        "--model": ("model", "memory controller variant under test", _CONTROLLERS),
        "--intervals": ("intervals", "query intervals (or query count)"),
        "--txns-per-query": ("txns_per_query", "transactions per interval"),
        "--scale": ("scale", "CH-benCH scale"),
        "--defrag-period": ("defrag_period", "transactions between defrags"),
        "--seed": ("seed", "workload seed"),
    }, run_profile)
    parser.add_argument("--out-dir", default=".", help="directory for trace.json / flame.folded")
    parser.add_argument("--top", type=int, default=10, help="bottleneck rows to print")
    args = parser.parse_args(argv)
    (params,) = parser.given(args, run_profile, where="profile")
    result = run_profile(**params)
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
    from repro.bench.roofline import render_roofline, run_roofline
    from repro.pim.substrate import available_substrates

    parser = _Parser(
        "roofline",
        "Sweep PrIM-style one-unit microbenchmarks and the end-to-"
        "end OLAP operators across hardware substrates, classify each "
        "operator as memory/compute/control-bound against the "
        "substrate's bandwidth ceilings, cross-check the accounting "
        "against the exported Chrome trace, and optionally write the "
        "snapshot as JSON.",
    )
    parser.derive({
        "--substrates": ("substrates", "substrates to sweep (None: all registered)", available_substrates()),
        "--sizes": ("sizes", "table sizes (rows) for the end-to-end operator sweep"),
        "--micro-sizes": ("micro_sizes", "table sizes (rows) for the one-unit microbenchmarks"),
        "--block-rows": ("block_rows", "storage block size (rows)"),
    }, run_roofline)
    parser.add_argument("--out", metavar="PATH", help="write the roofline snapshot to PATH as JSON")
    args = parser.parse_args(argv)
    (params,) = parser.given(args, run_roofline, where="roofline")
    _check_writable(args.out)
    snapshot = run_roofline(**params)
    print(render_roofline(snapshot))
    if args.out:
        _dump(args.out, snapshot, "roofline snapshot")
    if not all(check["ok"] for check in snapshot["trace_check"].values()):
        print("FAIL: trace-derived bandwidth disagrees with operator accounting", file=sys.stderr)
        return 1
    return 0


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
    from repro.faults.sweep import WORKLOADS, sweep_report

    parser = _Parser(
        "fault-sweep",
        "Run one workload under seeded fault injection for every "
        "(rates row, seed) cell and audit it: mixed/serve/cluster "
        "compare a faulted run with a clean one (cluster adds the 2PC "
        "atomicity audit); crash kills a WAL-enabled run, recovers it "
        "and compares Q1/Q6/Q9 with a never-crashed reference. Exits 1 "
        "if any cell raised or violated an audit.",
    )
    parser.add_argument(
        "--workload", choices=list(WORKLOADS), default="mixed", help="workload each cell drives"
    )
    parser.add_argument(
        "--rates", nargs="+", metavar="SPEC",
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
    parser.derive({
        "--intervals": ("intervals", "query intervals per run"),
        "--txns-per-query": ("txns_per_query", "transactions per interval (serve: requests per tenant)"),
        "--scale": ("scale", "CH-benCH scale"),
        "--defrag-period": ("defrag_period", "transactions between defrags"),
        "--controller": ("controller_kind", "memory controller variant under test", _CONTROLLERS),
        "--shards": ("shards", "shard count"),
        "--checkpoint-every": ("checkpoint_every", "commits between checkpoint spills, 0 disables"),
    }, *WORKLOADS.items())
    parser.add_argument("--metrics-out", metavar="PATH", help=_METRICS_OUT_HELP)
    parser.add_argument("--out", metavar="PATH", help="write every cell to PATH as JSON")
    args = parser.parse_args(argv)
    (params,) = parser.given(args, WORKLOADS[args.workload], where=f"--workload {args.workload}")
    _check_writable(args.out)
    with _metrics(args.metrics_out):
        report = sweep_report(args.workload, args.rates, args.seed, **params)
    cells = list(zip([row for row in report["rows"] for _ in report["seeds"]], report["cells"]))
    stats_keys = list(dict.fromkeys(key for _, cell in cells for key in cell["stats"]))
    print(format_table(
        [
            "rates", "seed", "plan", "survived", "injected", "detected",
            "retries", "checks", "violations", *stats_keys,
        ],
        [
            [
                spec, cell["seed"], cell["plan_hash"][:12], "yes" if cell["survived"] else "NO",
                sum(cell["injected"].values()), sum(cell["detected"].values()),
                cell["retries"], cell["checks"], len(cell["violations"]),
                *(_format_stat(key, cell["stats"].get(key)) for key in stats_keys),
            ]
            for spec, cell in cells
        ],
    ))
    for spec, cell in cells:
        for failure in ([cell["error"]] if cell["error"] else []) + cell["violations"]:
            print(f"{spec} seed {cell['seed']}: {failure}", file=sys.stderr)
    print(f"\n{report['survived']}/{report['total']} cells survived")
    if args.out:
        _dump(args.out, report, "report")
    return 0 if report["survived"] == report["total"] else 1


def serve(argv) -> int:
    """``serve``: the multi-tenant serving loop (or the serve ablation)."""
    from repro.serve.loop import ServeConfig
    from repro.serve.runner import run_serve, run_serve_ablation
    from repro.serve.scheduler import POLICIES
    from repro.serve.slo import SLOTargets

    parser = _Parser(
        "serve",
        "Serve N tenants through the admission controller and adaptive "
        "HTAP scheduler over simulated time; print (and optionally "
        "write) the per-tenant SLO report. --ablation runs the pinned "
        "arrival rate x scheduler policy and incremental-vs-rescan sweeps "
        "instead.",
    )
    parser.derive(
        {
            "--tenants": ("tenants", "client sessions"),
            "--requests": ("requests_per_tenant", "requests per tenant"),
            "--policy": ("policy", "HTAP scheduler policy", POLICIES),
            "--seed": ("seed", "run seed"),
            "--arrival": ("arrival", "open-loop Poisson or closed-loop think-time arrivals", ["open", "closed"]),
            "--rate": ("rate_per_tenant", "open-loop arrival rate per tenant (req/s, simulated)"),
            "--think-ns": ("think_ns", "closed-loop mean think time (ns)"),
            "--olap-fraction": ("olap_fraction", "fraction of requests that are analytical queries"),
            "--queue-depth": ("queue_depth", "per-tenant admission bound"),
            "--bucket-rate": ("bucket_rate", "token-bucket rate per tenant (req/s; 0 disables)"),
            "--batch-threshold": ("batch_threshold", "OLAP batch trigger depth"),
            "--freshness-sla": ("freshness_sla_txns", "freshness policy: max committed txns of snapshot staleness"),
            "--slo-oltp-ns": ("oltp_ns", "per-transaction end-to-end latency target (ns)"),
            "--slo-olap-ns": ("olap_ns", "per-query end-to-end latency target (ns)"),
            "--scale": ("scale", "CH-benCH scale"),
            "--controller": ("controller_kind", "memory controller variant under test", _CONTROLLERS),
            "--ivm": ("ivm", "maintain incremental views; a flush folds deltas when that beats a rescan"),
        },
        ("serve", ServeConfig),
        ("serve", SLOTargets),
        ("serve", run_serve),
        ("--ablation", run_serve_ablation),
    )
    parser.add_argument(
        "--ablation", action="store_true",
        help="run the pinned serve ablation instead of one run (the flags it takes apply)",
    )
    parser.add_argument("--out", metavar="PATH", help="write the machine-readable JSON report to PATH")
    args = parser.parse_args(argv)

    if args.ablation:
        (params,) = parser.given(args, run_serve_ablation, where="--ablation")
        _check_writable(args.out)
        report = run_serve_ablation(**params)
        ivm_report = report["ivm"]
        print(format_table(
            [
                "rate/tenant", "policy", "QphH", "tpmC", "batches",
                "handovers", "saved", "max stale",
            ],
            [
                [
                    f"{c['rate_per_tenant']:,.0f}", c["policy"], f"{c['olap_qphh']:,.0f}",
                    f"{c['oltp_tpmc']:,.0f}", c["olap_batches"], c["handovers"],
                    c["handovers_saved"], c["max_staleness_txns"],
                ]
                for c in report["cells"]
            ],
        ))
        print()
        print(format_table(
            [
                "rate/tenant", "mode", "QphH", "tpmC", "ivm flushes",
                "rescan flushes", "max stale", "max snap lag",
            ],
            [
                [
                    f"{c['rate_per_tenant']:,.0f}", c["mode"], f"{c['olap_qphh']:,.0f}",
                    f"{c['oltp_tpmc']:,.0f}", c["ivm_flushes"], c["rescan_flushes"],
                    c["max_staleness_txns"], format_time_ns(c["max_snapshot_lag_ns"]),
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
        failed = any(c["slo_errors"] for c in report["cells"] + ivm_report["cells"])
    else:
        config, slo, params = parser.given(args, ServeConfig, SLOTargets, run_serve, where="serve")
        config = ServeConfig(**config, slo=SLOTargets(**slo))
        _check_writable(args.out)
        report = run_serve(config, **params).report
        admission = report["admission"]
        print(format_table(
            [
                "tenant", "completed", "rejected", "p50", "p95", "p99",
                "violations", "disconnects",
            ],
            [
                [
                    tenant, t["completed"], t["rejected"],
                    *(format_time_ns(t["oltp"][f"{q}_ns"]) for q in ("p50", "p95", "p99")),
                    t["violations"]["oltp"] + t["violations"]["olap"], t["disconnected"],
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
    from repro.experiments.cluster import run_cluster_bench

    parser = _Parser(
        "cluster",
        "Sweep the sharded cluster over shard count (fixed data, fixed "
        "tenant streams) and remote-warehouse fraction; optionally "
        "write the snapshot as JSON. --check gates near-linear tpmC "
        "scaling.",
    )
    parser.derive({
        "--shards": ("shard_counts", "shard counts to sweep (1 is always included as the baseline)"),
        "--remote-fractions": ("remote_fractions", "remote-rate multipliers for the overhead curve (1.0 = spec)"),
        "--intervals": ("intervals", "query intervals per cell"),
        "--txns-per-query": ("txns_per_query", "transactions per interval"),
        "--scale": ("scale", "CH-benCH scale"),
        "--seed": ("seed", "workload seed"),
        "--interconnect-ns": ("interconnect_ns", "per-message cluster interconnect latency (simulated ns)"),
        "--defrag-period": ("defrag_period", "transactions between defrags"),
        "--jobs": ("jobs", "worker processes for shard sub-streams (snapshots are byte-identical)"),
    }, run_cluster_bench)
    parser.add_argument("--out", metavar="PATH", help="write the scaling snapshot to PATH as JSON")
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless tpmC(N) >= min-scaling * N * tpmC(1) for every N",
    )
    parser.add_argument(
        "--min-scaling", type=float, default=0.9,
        help="per-shard scaling efficiency the --check gate requires",
    )
    args = parser.parse_args(argv)
    (params,) = parser.given(args, run_cluster_bench, where="cluster")
    _check_writable(args.out)
    snapshot = run_cluster_bench(**params)
    print(format_table(
        ["shards", "tpmC", "speedup", "QphH", "speedup", "cross-shard", "coord"],
        [
            [
                cell["shards"], f"{cell['oltp_tpmc']:,.0f}", f"{cell['tpmc_speedup']:.2f}x",
                f"{cell['olap_qphh']:,.0f}", f"{cell['qphh_speedup']:.2f}x",
                cell["cross_shard"]["attempted"], format_time_ns(cell["coordination_time_ns"]),
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


def figures(argv) -> int:
    """Run the named experiments (or ``all``)."""
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
        "--substrate", choices=available_substrates(),
        help=(
            "run the figures on a registered hardware substrate instead of "
            "each figure's default system (HBM comparison rows keep HBM)"
        ),
    )
    parser.add_argument("--metrics-out", metavar="PATH", help=_METRICS_OUT_HELP)
    args = parser.parse_args(argv)
    config = get_substrate(args.substrate).config if args.substrate else None
    names = list(FIGURES) if "all" in args.experiments else args.experiments
    with _metrics(args.metrics_out):
        for name in names:
            print()
            print(render(name, FIGURES[name].points(config)))
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
    """Entry point: run a subcommand, or the named experiments (or ``all``).

    A :class:`ConfigError` is the user's input refused: it prints as one
    ``error:`` line and exits 2.
    """
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if argv and argv[0] in SUBCOMMANDS:
            return SUBCOMMANDS[argv[0]](argv[1:])
        return figures(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(141)
