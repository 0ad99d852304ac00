#!/usr/bin/env python3
"""One benchmark for both clocks: host time and simulated time.

Three ways to call it, all from the root of a checkout::

    # one workload, in this process; the last line of stdout is one JSON
    # object {"correct", "attempted", "failed", "metrics"} (the contract
    # BENCHMARK.json is written to)
    python3 benchmarks/e2e/run.py --workload htap_mixed --seed 7 --seconds 7 --trace 0

    # every workload, each in a fresh subprocess; prints every metric by
    # name with its unit and the sample count behind it
    python3 benchmarks/e2e/run.py [--seed N] [--runs R] [--traced] [--quick] [--out F]

    # two --out files side by side, one row per (workload, metric)
    python3 benchmarks/e2e/run.py compare A.json B.json

``--trace 0`` measures the end-to-end metrics with tracing and
``repro.telemetry`` off; ``--trace 1`` is the separate traced pass that
gives the per-layer metrics and writes a Chrome trace under
``benchmarks/e2e/out/``. Exit status is non-zero when an output check
fails or, for ``compare``, when a metric is worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
DEFAULT_SEED = 7


def load_contract() -> Dict[str, Any]:
    """BENCHMARK.json: the one place metric names, units and bounds live."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.4f}" if abs(value) < 1e6 else f"{value:,.1f}"


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"run.py: no program to measure: {source / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    size = workloads.Size(seconds=1.0 if args.quick else args.seconds, quick=args.quick)
    if args.trace:
        trace_path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
        result = workloads.run_traced(args.workload, args.seed, size, trace_path)
        declared = contract["per_layer"]
    else:
        result = workloads.run_end_to_end(args.workload, args.seed, size)
        # Peak of this process plus the largest of the workers it waited
        # for; read last, when everything has run.
        peak_kib = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        result["metrics"]["peak_rss_mb"] = peak_kib / 1024.0
        declared = contract["end_to_end"]

    unresolved = result.get("trace", {}).get("unresolved", [])
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        print(f"run.py: {args.workload} did not produce {missing}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in declared}
    samples = result.get("samples", {})
    label = "traced pass" if args.trace else "end to end"
    print(f"== {args.workload}  seed {args.seed}  {label}"
          + ("  [--quick: NOT comparable with a full run]" if args.quick else ""))
    for name, unit in units.items():
        value = result["metrics"][name]
        if args.trace and not value and not name.startswith("bench."):
            continue  # layers this workload never enters
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<40} {fmt(value):>18} {unit}{count}")
    for check in result["checks"]:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}"
              + (f": {check['detail']}" if check["detail"] else ""))
    if unresolved:
        print(f"  trace.unresolved: {unresolved}")
    print(f"  attempted {result['attempted']:,}  failed {result['failed']:,}  "
          f"sim_digest {result['sim_digest'][:16]}  host slowdown x{result['host_slowdown']:.3f}")

    result.update(workload=args.workload, seed=args.seed, quick=args.quick,
                  seconds=size.seconds, traced=bool(args.trace))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    if not result["correct"]:
        print(f"run.py: {args.workload}: output check failed", file=sys.stderr)
        return 1
    # The contract's last line. An unresolved layer metric is null in the
    # --out file and 0 here, where every value must be a number.
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name] or 0, "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


# ----------------------------------------------------------------------
# Every workload, one subprocess each
# ----------------------------------------------------------------------
def run_suite(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    names = [w["name"] for w in contract["workloads"]]
    if args.only:
        names = [n for n in names if n in args.only]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    runs: List[Dict[str, Any]] = []
    status = 0
    passes = [0, 1, 1] if args.traced else [0]  # traced twice: counts must repeat
    for seed in range(args.seed, args.seed + args.runs):
        for name in names:
            for index, trace in enumerate(passes):
                part = OUT_DIR / f"part_{name}_seed{seed}_{index}.json"
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", str(part),
                ] + (["--quick"] if args.quick else [])
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n"
                                 if done.returncode == 0 else done.stdout)
                sys.stdout.flush()
                if part.exists():
                    with open(part, encoding="utf-8") as fh:
                        runs.append(json.load(fh))
                    part.unlink()
                if done.returncode != 0:
                    status = 1
    status = max(status, check_traced_repeats(runs))
    if args.runs > 1:
        print_spreads(runs, contract)
    document = {
        "seed": args.seed, "runs_per_workload": args.runs, "quick": args.quick,
        "seconds": args.seconds, "runs": runs,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
        print(f"wrote {args.out}")
    return status


def exact_layer_metrics(run: Dict[str, Any]) -> Dict[str, Any]:
    """The per-layer values that must repeat exactly for one seed: every
    count, every call count; not host seconds, not ratios of them."""
    return {
        name: value for name, value in run["metrics"].items()
        if not name.endswith(".self_s") and not name.endswith("_ratio")
        and name != "parallel.speedup"
    }


def check_traced_repeats(runs: List[Dict[str, Any]]) -> int:
    """Trace self-check across runs: two traced runs of one seed agree on
    every count that repeats exactly."""
    status = 0
    first: Dict[Any, Dict[str, Any]] = {}
    for run in runs:
        if not run["traced"]:
            continue
        key = (run["workload"], run["seed"])
        counts = exact_layer_metrics(run)
        if key not in first:
            first[key] = counts
            continue
        differing = sorted(n for n in counts if counts[n] != first[key].get(n))
        verdict = "FAIL " + ", ".join(differing[:6]) if differing else "ok"
        print(f"  check {verdict}  {key[0]} seed {key[1]}: "
              f"{len(counts)} exact layer counts equal across two traced runs")
        status = max(status, 1 if differing else 0)
    return status


def spread(values: List[float]) -> Optional[float]:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf


def print_spreads(runs: List[Dict[str, Any]], contract: Dict[str, Any]) -> None:
    print("== spread over runs: (q3 - q1) / median per end-to-end metric")
    for workload in sorted({r["workload"] for r in runs}):
        for metric in contract["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs
                      if r["workload"] == workload and not r["traced"]]
            if len(values) < 2:
                continue
            share, bound = spread(values), metric["bound"]
            flag = ""
            if metric["name"] != "setup_s" and share * 3 > bound:  # the driver exempts set-up
                flag = "  > bound" if share > bound else "  > bound/3"
            median = fmt(statistics.median(values))
            print(f"  {workload:<14} {metric['name']:<26} median {median:>16} "
                  f"{metric['unit']:<11} spread {share:7.2%}  bound {bound:.0%}{flag}")


# ----------------------------------------------------------------------
# compare A.json B.json
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str, contract: Dict[str, Any]) -> int:
    """One row per (workload, end-to-end metric): both medians, the ratio
    B/A with A as its base, the bound, and a verdict.

    ``within`` / ``worse`` compare the medians against the bound;
    ``unresolved`` means the run-to-run spread of either side is wider
    than the bound, so the runs cannot tell. Simulated metrics and
    ``sim_digest`` must be *equal* seed by seed: the simulator is
    deterministic, so any difference is a behaviour change, whatever
    the bound in BENCHMARK.json (which only absorbs seed-to-seed
    variation for the driver's spread check).
    """
    with open(path_a, encoding="utf-8") as fh:
        a = [r for r in json.load(fh)["runs"] if not r["traced"]]
    with open(path_b, encoding="utf-8") as fh:
        b = [r for r in json.load(fh)["runs"] if not r["traced"]]
    status = 0
    print(f"A = {path_a}\nB = {path_b}   (ratio = B / A)")
    print(f"{'workload':<14} {'metric':<26} {'A':>16} {'B':>16} {'unit':<11} "
          f"{'B/A':>8} {'bound':>6}  verdict")
    for workload in [w["name"] for w in contract["workloads"]]:
        runs_a = {r["seed"]: r for r in a if r["workload"] == workload}
        runs_b = {r["seed"]: r for r in b if r["workload"] == workload}
        seeds = sorted(set(runs_a) & set(runs_b))
        if not seeds:
            continue
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [runs_a[s]["metrics"][name] for s in seeds]
            vb = [runs_b[s]["metrics"][name] for s in seeds]
            ma, mb = statistics.median(va), statistics.median(vb)
            ratio = mb / ma if ma else math.inf
            if name.startswith("sim_"):
                verdict = "equal" if va == vb else "DIFFERENT (must be equal)"
                shown_bound = "exact"
            else:
                worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
                spreads = [s for s in (spread(va), spread(vb)) if s is not None]
                if spreads and max(spreads) > bound:
                    verdict = f"unresolved (spread {max(spreads):.1%} > bound)"
                else:
                    verdict = "within" if worse <= bound else "WORSE"
                shown_bound = f"{bound:.0%}"
            if verdict.isupper() or verdict.startswith("DIFFERENT"):
                status = 1
            print(f"{workload:<14} {name:<26} {fmt(ma):>16} {fmt(mb):>16} "
                  f"{metric['unit']:<11} {ratio:8.4f} {shown_bound:>6}  {verdict}")
        same = all(runs_a[s]["sim_digest"] == runs_b[s]["sim_digest"] for s in seeds)
        failed = sum(runs_b[s]["failed"] for s in seeds)
        if not same:
            status = 1
        print(f"{workload:<14} {'sim_digest':<26} {len(seeds)} seed(s) "
              f"{'equal' if same else 'DIFFERENT (must be equal)'};  "
              f"failed operations A {sum(runs_a[s]['failed'] for s in seeds)}  B {failed}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    contract = load_contract()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], contract)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="size of the primary phases, in seconds on the reference host")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 runs the traced pass instead")
    parser.add_argument("--traced", action="store_true",
                        help="suite: also run the traced pass (twice) per workload")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite: runs per workload, seeds --seed, --seed+1, ...")
    parser.add_argument("--only", nargs="+", help="suite: only these workloads")
    parser.add_argument("--quick", action="store_true",
                        help="smoke size (< 60 s for all five); results not comparable")
    parser.add_argument("--out", help="write the results as JSON here")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args, contract)
    return run_suite(args, contract)


if __name__ == "__main__":
    sys.exit(main())
