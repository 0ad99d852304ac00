"""Substrate roofline sweep: microbenchmarks + end-to-end operators.

``run_roofline`` sweeps every requested substrate twice:

1. the PrIM-style primitives (:mod:`repro.bench.micro`): the query path
   on a one-unit copy of the sweep table, and
2. the OLAP operators over the sweep table on that substrate's full
   configuration, with the telemetry registry's ``roofline`` flag on so
   every operator logs bytes moved, achieved bandwidth, ceiling ratio,
   and its memory/compute/control-bound classification.

The result is one deterministic, JSON-ready snapshot
(``baselines/roofline.json`` pins the full sweep) with per-substrate
ceilings, achieved-vs-ceiling points, saturation fits, a bottleneck
ranking, and a span-tree consistency check: each operator's effective
bandwidth must match ``dram_bytes / Σ(pim.phase.load)`` over its
load-phase child spans in the same run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import telemetry
from repro.bench.micro import (
    DEFAULT_SIZES,
    PRIMITIVES,
    _PREDICATE,
    _build_engine,
    fit_saturation,
    run_micro,
)
from repro.core.config import SUBSTRATES, SystemConfig, substrate_config
from repro.errors import ConfigError
from repro.olap.cost import scan_bandwidth_per_unit
from repro.olap.engine import QueryTiming
from repro.olap.operators import RegionRows
from repro.pim.timing import random_line_time
from repro.telemetry.registry import MetricsRegistry
from repro.trace.tracer import Tracer

__all__ = ["run_roofline", "render_roofline", "DEFAULT_OPERATOR_SIZES"]

#: Table sizes (rows) swept through the end-to-end operators.
DEFAULT_OPERATOR_SIZES = (4096, 16384, 65536)

#: Relative tolerance of the trace-derived bandwidth cross-check.
TRACE_TOLERANCE = 0.01


def _ceilings(config: SystemConfig) -> Dict[str, float]:
    """The roofline ceilings of ``config``: stream bandwidth per unit,
    rank and system, the random cache-line floor (no row hits) and its
    bandwidth, and the control cost of one offload — two mode switches
    plus one disguised launch and one poll request (§6.1/§7.1).
    Bandwidths are bytes/ns (= GB/s), times ns."""
    per_unit = scan_bandwidth_per_unit(config)
    random_line_ns = random_line_time(1, config.timings)
    return {
        "stream_bandwidth_per_unit": per_unit,
        "stream_bandwidth_per_rank": per_unit * config.pim.units_per_rank,
        "stream_bandwidth_system": per_unit * config.total_pim_units,
        "random_line_ns": random_line_ns,
        "random_line_bandwidth": config.geometry.cache_line_bytes / random_line_ns,
        "control_overhead_ns": (
            2.0 * config.mode_switch_latency + 2.0 * config.controller_request_latency
        ),
        "cpu_bandwidth": config.total_cpu_bandwidth,
        "total_pim_units": float(config.total_pim_units),
    }


def _sweep_operators(
    config: SystemConfig, sizes: Sequence[int], block_rows: int
) -> Dict[str, object]:
    """Run the operator suite at each size under roofline telemetry."""
    registry = MetricsRegistry()
    registry.roofline = True
    telemetry.enable(registry)
    try:
        engine = _build_engine(config, max(sizes), block_rows)
        table = engine.table("points")
        operators: List[Dict[str, object]] = []
        for rows in sizes:
            selection = RegionRows(data_rows=rows)
            timing = QueryTiming()
            mark = len(engine.olap.roofline_log)
            engine.olap.filter(table, "v", _PREDICATE, timing, selection)
            _, merged = engine.olap.group(table, "g", timing, selection)
            engine.olap.aggregate(
                table, "v", merged.indices, merged.num_groups, timing, selection
            )
            build = engine.olap.hash_scan(table, "k", timing, selection)
            probe = engine.olap.hash_scan(table, "k", timing, selection)
            engine.olap.join(build, probe, timing)
            for metrics in engine.olap.roofline_log[mark:]:
                operators.append({"rows": rows, **metrics.as_dict()})
        trace_check = _trace_consistency(registry)
    finally:
        telemetry.disable()
    return {"operators": operators, "trace_check": trace_check}


def _trace_consistency(
    registry: MetricsRegistry, tolerance: float = TRACE_TOLERANCE
) -> Dict[str, object]:
    """Re-derive operator bandwidth from the span tree.

    For each operator span carrying a ``dram_bytes`` attribute, DRAM
    busy time is the sum of its ``pim.phase.load`` children's durations;
    ``dram_bytes / busy`` must agree with the operator's reported
    ``eff_gbps`` within ``tolerance``.
    """
    checked = 0
    max_rel_err = 0.0
    for span in Tracer(registry.spans).spans:
        args = span.attrs
        if not (span.name.startswith("olap.operator.") and args.get("dram_bytes")):
            continue
        busy = sum(c.duration for c in span.children if c.name == "pim.phase.load")
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
    """Full roofline sweep; returns the snapshot dict.

    ``block_rows`` sets the operator sweep's storage blocks only; the
    microbenchmarks keep their own 256-row blocks. Raises
    :class:`ConfigError` before any substrate runs unless every size and
    ``block_rows`` is positive.
    """
    for name, values in (
        ("sizes", sizes), ("micro_sizes", micro_sizes), ("block_rows", [block_rows])
    ):
        if not values or min(values) < 1:
            raise ConfigError(f"{name} must be positive")
    names = list(substrates) if substrates else sorted(SUBSTRATES)
    sizes = sorted(set(sizes))
    micro_sizes = sorted(set(micro_sizes))
    snapshot: Dict[str, object] = {
        "bench_roofline_version": 2,
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
        "trace_check": {},
    }
    for name in names:
        config = substrate_config(name)
        snapshot["substrates"][name] = {
            "name": name, "description": SUBSTRATES[name][1], **_ceilings(config)
        }
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
        sweep = _sweep_operators(config, sizes, block_rows)
        snapshot["operators"][name] = sweep["operators"]
        snapshot["bottlenecks"][name] = _bottlenecks(
            sweep["operators"], max(sizes)
        )
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
