"""Substrate roofline sweep: microbenchmarks + end-to-end operators.

``run_roofline`` sweeps every requested substrate twice:

1. the PrIM-style single-unit primitives (:mod:`repro.bench.micro`), and
2. the real OLAP operators over a synthetic table built on that
   substrate's configuration, with the telemetry registry's ``roofline``
   flag on so every operator logs bytes moved, achieved bandwidth,
   ceiling ratio, and its memory/compute/control-bound classification.

The result is one deterministic, JSON-ready snapshot
(``baselines/roofline.json`` pins the full sweep) with per-substrate ceilings, achieved-vs-ceiling points, saturation
fits, a bottleneck ranking, row-buffer hit/miss/conflict lanes, and a
Chrome-trace consistency check: each operator's effective bandwidth must
match ``dram_bytes / Σ(pim.phase.load)`` re-derived from the exported
trace of the same run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import telemetry
from repro.bench.micro import DEFAULT_SIZES, PRIMITIVES, fit_saturation, run_micro
from repro.core.engine import PushTapEngine
from repro.format.schema import Column, TableSchema
from repro.olap.engine import QueryTiming
from repro.olap.operators import RegionRows
from repro.pim.pim_unit import Condition
from repro.pim.substrate import Substrate, available_substrates, get_substrate
from repro.telemetry.registry import MetricsRegistry
from repro.trace.chrome import to_chrome_trace
from repro.trace.tracer import Tracer

__all__ = ["run_roofline", "render_roofline", "DEFAULT_OPERATOR_SIZES"]

#: Table sizes (rows) swept through the end-to-end operators.
DEFAULT_OPERATOR_SIZES = (4096, 16384, 65536)

#: Relative tolerance of the trace-derived bandwidth cross-check.
TRACE_TOLERANCE = 0.01


def _synthetic_schema() -> TableSchema:
    """The sweep table: a join key, a value column, and a group key."""
    return TableSchema.of(
        "points", (Column("k", 4), Column("v", 4), Column("g", 2))
    )


def _synthetic_rows(rows: int) -> List[Dict[str, int]]:
    """Deterministic rows: ~50% filter selectivity, 64 group keys."""
    return [
        {
            "k": (i * 2654435761) & 0xFFFFFFFF,
            "v": (i * 48271) % 65536,
            "g": i % 64,
        }
        for i in range(rows)
    ]


def _build_engine(substrate: Substrate, rows: int, block_rows: int) -> PushTapEngine:
    schema = _synthetic_schema()
    return PushTapEngine.build_custom(
        {schema.name: schema},
        {schema.name: ("k", "v", "g")},
        {schema.name: _synthetic_rows(rows)},
        config=substrate.config,
        block_rows=block_rows,
    )


def _sweep_operators(
    substrate: Substrate, sizes: Sequence[int], block_rows: int
) -> Dict[str, object]:
    """Run the operator suite at each size under roofline telemetry."""
    registry = MetricsRegistry()
    registry.roofline = True
    telemetry.enable(registry)
    try:
        engine = _build_engine(substrate, max(sizes), block_rows)
        table = engine.table("points")
        ts = engine.db.oracle.read_timestamp()
        table.snapshots.update_to(ts)
        operators: List[Dict[str, object]] = []
        for rows in sizes:
            selection = RegionRows(data_rows=rows)
            timing = QueryTiming()
            mark = len(engine.olap.roofline_log)
            engine.olap.filter(
                table, "v", Condition("lt", 32768), timing, selection
            )
            _, merged = engine.olap.group(table, "g", timing, selection)
            engine.olap.aggregate(
                table, "v", merged.indices, merged.num_groups, timing, selection
            )
            build = engine.olap.hash_scan(table, "k", timing, selection)
            probe = engine.olap.hash_scan(table, "k", timing, selection)
            engine.olap.join(build, probe, timing)
            for metrics in engine.olap.roofline_log[mark:]:
                operators.append({"rows": rows, **metrics.as_dict()})
        engine.publish_rowbuffer_telemetry()
        rowbuffer = {
            name: counter.value
            for name, counter in sorted(registry.counters.items())
            if ".rowbuffer." in name
        }
        trace_check = _trace_consistency(registry)
    finally:
        telemetry.disable()
    return {
        "operators": operators,
        "rowbuffer": rowbuffer,
        "trace_check": trace_check,
    }


def _trace_consistency(
    registry: MetricsRegistry, tolerance: float = TRACE_TOLERANCE
) -> Dict[str, object]:
    """Re-derive operator bandwidth from the exported Chrome trace.

    For each operator event carrying a ``dram_bytes`` attribute, DRAM
    busy time is the sum of ``pim.phase.load`` event durations contained
    in the operator's interval; ``dram_bytes / busy`` must agree with
    the operator's reported ``eff_gbps`` within ``tolerance``.
    """
    events = to_chrome_trace(Tracer(registry.spans))["traceEvents"]
    ops = []
    loads = []
    for event in events:
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        start = args.get("start_ns")
        duration = args.get("duration_ns")
        if start is None or duration is None:
            continue
        name = event.get("name", "")
        if name.startswith("olap.operator.") and args.get("dram_bytes"):
            ops.append((start, start + duration, args))
        elif name == "pim.phase.load":
            loads.append((start, start + duration, duration))
    eps = 1e-6
    checked = 0
    max_rel_err = 0.0
    for begin, end, args in ops:
        busy = sum(
            dur
            for l_begin, l_end, dur in loads
            if l_begin >= begin - eps and l_end <= end + eps
        )
        reported = args.get("eff_gbps", 0.0)
        if busy <= 0 or not reported:
            continue
        derived = args["dram_bytes"] / busy
        checked += 1
        max_rel_err = max(max_rel_err, abs(derived - reported) / reported)
    return {
        "checked": checked,
        "max_rel_err": max_rel_err,
        "tolerance": tolerance,
        "ok": checked > 0 and max_rel_err <= tolerance,
    }


def _bottlenecks(
    operators: List[Dict[str, object]], max_rows: int
) -> List[Dict[str, object]]:
    """Rank operators at the largest size by share of sweep time."""
    merged: Dict[str, Dict[str, object]] = {}
    for op in operators:
        if op["rows"] != max_rows:
            continue
        entry = merged.setdefault(
            op["operator"],
            {
                "operator": op["operator"],
                "total_time": 0.0,
                "dram_bytes": 0,
                "bound": op["bound"],
                "ceiling_ratio": op["ceiling_ratio"],
            },
        )
        entry["total_time"] += op["total_time"]
        entry["dram_bytes"] += op["dram_bytes"]
        entry["ceiling_ratio"] = max(entry["ceiling_ratio"], op["ceiling_ratio"])
    total = sum(e["total_time"] for e in merged.values())
    ranked = sorted(merged.values(), key=lambda e: (-e["total_time"], e["operator"]))
    for entry in ranked:
        entry["time_share"] = entry["total_time"] / total if total else 0.0
    return ranked


def run_roofline(
    substrates: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = DEFAULT_OPERATOR_SIZES,
    micro_sizes: Sequence[int] = DEFAULT_SIZES,
    block_rows: int = 256,
) -> Dict[str, object]:
    """Full roofline sweep; returns the snapshot dict."""
    names = list(substrates) if substrates else available_substrates()
    sizes = sorted(set(sizes))
    micro_sizes = sorted(set(micro_sizes))
    snapshot: Dict[str, object] = {
        "bench_roofline_version": 1,
        "params": {
            "substrates": names,
            "sizes": list(sizes),
            "micro_sizes": list(micro_sizes),
            "block_rows": block_rows,
        },
        "substrates": {},
        "micro": {},
        "fits": {},
        "operators": {},
        "bottlenecks": {},
        "rowbuffer": {},
        "trace_check": {},
    }
    for name in names:
        substrate = get_substrate(name)
        snapshot["substrates"][name] = substrate.summary()
        points = run_micro([name], micro_sizes)
        snapshot["micro"][name] = [p.as_dict() for p in points]
        fits: Dict[str, Dict[str, float]] = {}
        for primitive in sorted(PRIMITIVES):
            series = [p for p in points if p.primitive == primitive]
            fits[primitive] = fit_saturation(
                [p.dram_bytes for p in series],
                [p.effective_bandwidth for p in series],
            )
        snapshot["fits"][name] = fits
        sweep = _sweep_operators(substrate, sizes, block_rows)
        snapshot["operators"][name] = sweep["operators"]
        snapshot["bottlenecks"][name] = _bottlenecks(
            sweep["operators"], max(sizes)
        )
        snapshot["rowbuffer"][name] = sweep["rowbuffer"]
        snapshot["trace_check"][name] = sweep["trace_check"]
    return snapshot


def _bar(ratio: float, width: int = 32) -> str:
    filled = max(0, min(width, round(ratio * width)))
    return "#" * filled + "." * (width - filled)


def render_roofline(snapshot: Dict[str, object]) -> str:
    """ASCII roofline: per-substrate achieved-vs-ceiling bars."""
    lines: List[str] = []
    max_rows = max(snapshot["params"]["sizes"])
    for name in snapshot["params"]["substrates"]:
        summary = snapshot["substrates"][name]
        lines.append(f"== {name} — {summary['description']} ==")
        lines.append(
            "ceilings: stream {:.3f} B/ns/unit ({:.1f} GB/s system), "
            "random {:.3f} B/ns, control {:.0f} ns/offload".format(
                summary["stream_bandwidth_per_unit"],
                summary["stream_bandwidth_system"],
                summary["random_line_bandwidth"],
                summary["control_overhead_ns"],
            )
        )
        lines.append(f"operators @ {max_rows:,} rows (achieved / stream ceiling):")
        for entry in snapshot["bottlenecks"][name]:
            lines.append(
                "  {:<10s} |{}| {:>5.1%}  {:<7s} {:>5.1%} of sweep time".format(
                    entry["operator"],
                    _bar(entry["ceiling_ratio"]),
                    entry["ceiling_ratio"],
                    entry["bound"],
                    entry["time_share"],
                )
            )
        lines.append("microbenchmarks (largest size, single unit):")
        largest = max(snapshot["params"]["micro_sizes"])
        for point in snapshot["micro"][name]:
            if point["rows"] != largest:
                continue
            fit = snapshot["fits"][name][point["primitive"]]
            lines.append(
                "  {:<10s} |{}| {:>5.1%}  {:<7s} B∞ {:.3f} B/ns, s½ {:,.0f} B".format(
                    point["primitive"],
                    _bar(point["ceiling_ratio"]),
                    point["ceiling_ratio"],
                    point["bound"],
                    fit["asymptote_bandwidth"],
                    fit["half_size_bytes"],
                )
            )
        check = snapshot["trace_check"][name]
        lines.append(
            "trace consistency: {} operators checked, max err {:.4%} "
            "(tolerance {:.0%}) — {}".format(
                check["checked"],
                check["max_rel_err"],
                check["tolerance"],
                "OK" if check["ok"] else "FAIL",
            )
        )
        lines.append("")
    return "\n".join(lines).rstrip()
