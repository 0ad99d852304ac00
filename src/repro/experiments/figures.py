"""The paper's §7 figures as data: one :data:`FIGURES` entry per figure id.

An entry holds the call that computes the figure's points (one fixed
parameter set), the ``(header, cell)`` table columns that print them, and
the paper's anchors: a value read off the points, the paper's number and
the closed band ``[lo, hi]`` the value must land in on the default
substrate. The CLI (``python -m repro.experiments <ids>|all``), the
figure baseline gate (``scripts/check_figure_baseline.py``, which pins
:func:`as_json` of every figure on every substrate) and the benchmark
suite all read this table; nothing else spells a figure out.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.config import SystemConfig, dimm_system
from repro.experiments import ablations, fig8, fig9, fig10, fig11, fig12
from repro.report import format_percent as pct, format_table, format_time_ns as ns
from repro.units import KIB

__all__ = ["Anchor", "Figure", "FIGURES", "as_json", "render"]

Points = List[Any]
INF = float("inf")
#: Lower bound that makes a closed band express a strict ``> 0``.
EPS = 1e-9


class Anchor(NamedTuple):
    """One paper anchor: ``lo <= value(points) <= hi``."""

    name: str
    paper: Optional[float]  # None where the paper gives no number
    value: Callable[[Points], float]
    lo: float
    hi: float

    def holds(self, points: Points) -> bool:
        return self.lo <= self.value(points) <= self.hi


class Figure(NamedTuple):
    """One figure: its points, how to print them, and its anchors."""

    title: str
    points: Callable[[Optional[SystemConfig]], Points]
    columns: Sequence[Tuple[str, Callable[[Any, Points], str]]]  # cell(point, points)
    anchors: Sequence[Anchor]


def _get(point, key: str):
    """One field of a point: a dict key or a dataclass attribute/property."""
    return point[key] if isinstance(point, dict) else getattr(point, key)


def _v(points: Points, key: str, **match):
    """Field ``key`` of the first point whose fields equal ``match``."""
    return _get(next(p for p in points if all(_get(p, k) == v for k, v in match.items())), key)


def _col(key: str, fmt: Callable[[Any], str] = str):
    """A cell printing one field of its point."""
    return lambda point, points: fmt(_get(point, key))


def _ideal(points: Points, num_txns: int) -> float:
    """Fig. 9b: the ideal system's scan time at one txn count."""
    return _v(points, "scan_time", system="ideal", num_txns=num_txns)


def _overhead(points: Points, system: str, num_txns: int) -> float:
    """Fig. 9b: one system's query overhead over the ideal scan."""
    overhead_vs = _v(points, "overhead_vs", system=system, num_txns=num_txns)
    return overhead_vs(_ideal(points, num_txns))


def _wram(points: Points, key: str, controller: str, kib: int) -> float:
    """Fig. 12b: one field at one (controller, WRAM size)."""
    return _v(points, key, controller=controller, wram_bytes=kib * KIB)


def _wins(points: Points, winner: str, loser: str) -> int:
    """Fig. 12a: table parts where ``winner`` moves faster than ``loser``."""
    won = _v(points, "per_part", strategy=winner).values()
    return sum(a < b for a, b in zip(won, _v(points, "per_part", strategy=loser).values()))


_HEADLINE = (
    "pushtap_peak_tpmc", "mi_peak_tpmc", "peak_oltp_ratio",
    "olap_ratio_at_mi_peak", "pushtap_flat_olap_qphh", "pushtap_knee_tpmc",
)

FIGURES: Dict[str, Figure] = {
    "fig8a": Figure(
        "Fig. 8a — CPU/PIM effective bandwidth vs th",
        lambda config: fig8.th_sweep(config=config),
        [("th", _col("th")), ("CPU eff bw", _col("cpu_bandwidth", pct)),
         ("PIM eff bw", _col("pim_bandwidth", pct)), ("parts", _col("total_parts"))],
        [Anchor("CPU eff bw, th=0 minus th=1", None,
                lambda p: p[0].cpu_bandwidth - p[-1].cpu_bandwidth, EPS, INF),
         Anchor("PIM eff bw, th=1 minus th=0", None,
                lambda p: p[-1].pim_bandwidth - p[0].pim_bandwidth, EPS, INF),
         Anchor("PIM eff bw at th=0.6", 0.974, lambda p: _v(p, "pim_bandwidth", th=0.6), 0.9, INF)],
    ),
    "fig8b": Figure(
        "Fig. 8b — storage breakdown at th=0.6",
        lambda config: [fig8.storage_breakdown_point(0.6, config=config)],
        [("data", lambda p, _: pct(p.data_bytes / p.total_bytes)),
         ("padding", _col("padding_fraction", pct)),
         ("snapshot bitmap", _col("bitmap_fraction", pct))],
        [Anchor("snapshot bitmap share", 0.023, lambda p: p[0].bitmap_fraction, -INF, 0.05)],
    ),
    "fig8cd": Figure(
        "Fig. 8c/8d — max CPU (PIM) eff bw keeping the other side >= 70%",
        lambda config: fig8.subset_sweep(config=config),
        [("subset", _col("subset")), ("key cols", _col("num_key_columns")),
         ("max CPU (PIM>=70%)", _col("max_cpu_with_pim_constraint", pct)),
         ("max PIM (CPU>=70%)", _col("max_pim_with_cpu_constraint", pct))],
        [Anchor("Q1-1 key columns", None, lambda p: _v(p, "num_key_columns", subset="Q1-1"), 4, 4),
         Anchor("Q1-1 max CPU minus the largest", None,
                lambda p: _v(p, "max_cpu_with_pim_constraint", subset="Q1-1")
                - max(q.max_cpu_with_pim_constraint for q in p), 0, 0),
         Anchor("ALL max CPU minus the smallest", None,
                lambda p: _v(p, "max_cpu_with_pim_constraint", subset="ALL")
                - min(q.max_cpu_with_pim_constraint for q in p), 0, 0),
         Anchor("ALL reaches CPU >= 70%", 0.0,
                lambda p: float(_v(p, "pim_constraint_feasible", subset="ALL")), 0, 0)],
    ),
    "htapbench": Figure(
        "§7.2 — HTAPBench generality at th=0.55",
        lambda config: [fig8.htapbench_point(config=config)],
        [("th", _col("th")), ("CPU eff bw", _col("cpu_bandwidth", pct)),
         ("PIM eff bw", _col("pim_bandwidth", pct))],
        [Anchor("PIM eff bw", 0.98, lambda p: p[0]["pim_bandwidth"], 0.85, INF)],
    ),
    "fig9a": Figure(
        "Fig. 9a — mean transaction time by format",
        lambda config: fig9.oltp_comparison(config=config),
        [("format", _col("label")), ("mean txn time", _col("mean_txn_time", ns)),
         ("vs RS", _col("relative_to_rs", "{:.3f}x".format))],
        [Anchor("CS vs RS", 1.281, lambda p: _v(p, "relative_to_rs", label="CS"), 1.1, 1.6),
         Anchor("PUSHtap vs RS", 1.035, lambda p: _v(p, "relative_to_rs", label="PUSHtap"), 1.0, 1.12),
         Anchor("CS minus PUSHtap (HBM), vs RS", None,
                lambda p: _v(p, "relative_to_rs", label="CS")
                - _v(p, "relative_to_rs", label="PUSHtap (HBM)"), EPS, INF),
         Anchor("RS relayout per txn (ns)", 0.0,
                lambda p: _v(p, "breakdown", label="RS")["relayout"], 0, 0),
         Anchor("PUSHtap relayout per txn (ns)", None,
                lambda p: _v(p, "breakdown", label="PUSHtap")["relayout"], EPS, INF)],
    ),
    "fig9b": Figure(
        "Fig. 9b — query time: consistency + scan vs transactions",
        lambda config: fig9.olap_comparison(config=config),
        [("system", _col("system")), ("txns", _col("num_txns", "{:,}".format)),
         ("consistency", _col("consistency_time", ns)), ("scan", _col("scan_time", ns)),
         ("overhead vs ideal", lambda p, points: pct(_overhead(points, p.system, p.num_txns)))],
        [Anchor("MI overhead at 1M txns", 1.233, lambda p: _overhead(p, "MI", 1_000_000), 0.5, 3.0),
         Anchor("PUSHtap overhead at 1M txns", 0.015,
                lambda p: _overhead(p, "PUSHtap", 1_000_000), -INF, 0.10),
         Anchor("PUSHtap overhead at 8M txns", 0.126,
                lambda p: _overhead(p, "PUSHtap", 8_000_000), -INF, 0.30),
         Anchor("MI slowdown vs ideal at 8M txns", 13.3,
                lambda p: _overhead(p, "MI", 8_000_000) + 1.0, 5.0, INF),
         Anchor("MI (HBM) rebuild / scan at 8M txns", 0.241,
                lambda p: _v(p, "consistency_time", system="MI (HBM)", num_txns=8_000_000)
                / _v(p, "scan_time", system="MI (HBM)", num_txns=8_000_000), -INF, 0.6)],
    ),
    "fig10": Figure(
        "Fig. 10 — OLTP/OLAP throughput frontier, PUSHtap vs MI",
        lambda config: (
            fig10.frontier("pushtap", 12, config=config) + fig10.frontier("mi", 12, config=config)
        ),
        [("system", _col("system")), ("OLTP (MtpmC)", _col("oltp_tpmc", lambda v: f"{v / 1e6:.1f}")),
         ("OLAP (QphH)", _col("olap_qphh", "{:,.0f}".format))],
        [Anchor("PUSHtap / MI peak OLTP", 3.4,
                lambda p: max(q.oltp_tpmc for q in p if q.system == "pushtap")
                / max(q.oltp_tpmc for q in p if q.system == "mi"), 2.5, INF),
         Anchor("PUSHtap OLAP, point 1 minus point 0", None,
                lambda p: p[1].olap_qphh - p[0].olap_qphh, 0, 0)],
    ),
    "headline": Figure(
        "§7.3.3 — headline frontier ratios",
        lambda config: [fig10.peak_ratios(fig10.FrontierModel(config or dimm_system()))],
        [(key, _col(key, "{:,.2f}".format)) for key in _HEADLINE],
        [Anchor("peak OLTP ratio", 3.4, lambda p: p[0]["peak_oltp_ratio"], 2.5, 4.5),
         Anchor("OLAP ratio at MI peak", 4.4, lambda p: p[0]["olap_ratio_at_mi_peak"], 2.0, INF)],
    ),
    "fig11a": Figure(
        "Fig. 11a — OLTP time with/without defragmentation",
        lambda config: fig11.oltp_defrag_overhead(config=config),
        [("txns", _col("num_txns", "{:,}".format)),
         ("OLTP w/ defrag", _col("oltp_time_with_defrag", ns)),
         ("OLTP w/o", _col("oltp_time_without_defrag", ns)),
         ("defrag time", _col("defrag_time", ns)), ("overhead", _col("defrag_overhead", pct))],
        [Anchor("largest defrag share of OLTP time", 0.015,
                lambda p: max(q.defrag_overhead for q in p), -INF, 0.05)],
    ),
    "fig11b": Figure(
        "Fig. 11b — fragmentation penalty vs defragmentation cost per window",
        lambda config: fig11.fragmentation_vs_defrag(config=config),
        [("txns in window", _col("num_txns", "{:,}".format)),
         ("fragmentation", _col("fragmentation_overhead", ns)),
         ("defragmentation", _col("defrag_overhead", ns)), ("ratio", _col("ratio", "{:.2f}x".format))],
        [Anchor("fragmentation / defrag at the first window", None, lambda p: p[0].ratio, -INF, 1.0),
         Anchor("first window where fragmentation wins (txns)", 10_000,
                lambda p: next((q.num_txns for q in p if q.ratio >= 1.0), INF), -INF, 30_000)],
    ),
    "fig11c": Figure(
        "Fig. 11c — transaction time breakdown",
        lambda config: [fig11.transaction_breakdown(num_txns=100, config=config)],
        [(phase, _col(phase, pct))
         for phase in ("index", "alloc", "compute", "chain", "memory", "relayout", "flush")],
        [Anchor("index + alloc + compute share", None,
                lambda p: p[0]["index"] + p[0]["alloc"] + p[0]["compute"], 0.5, INF),
         Anchor("version-chain share", 0.001, lambda p: p[0]["chain"], -INF, 0.02)],
    ),
    "fig11d": Figure(
        "Fig. 11d — defragmentation time breakdown",
        # 200 txns: the window the fixed-cost amortization anchor was set at.
        lambda config: [fig11.defrag_breakdown(num_txns=200, config=config)],
        [(phase, _col(phase, pct)) for phase in (
            "fixed", "chain_traversal", "metadata_read", "broadcast", "copy_cpu", "copy_pim")],
        [Anchor("per-row share (chain walk + copies)", None,
                lambda p: p[0]["chain_traversal"] + p[0]["copy_cpu"] + p[0]["copy_pim"], -INF, 0.5)],
    ),
    "fig12a": Figure(
        "Fig. 12a — defragmentation time by strategy",
        lambda config: fig12.defrag_strategy_comparison(config=config),
        [("strategy", _col("strategy")), ("defragmentation time", _col("total_time", ns))],
        [Anchor("hybrid minus CPU (ns)", None,
                lambda p: _v(p, "total_time", strategy="hybrid")
                - _v(p, "total_time", strategy="cpu"), -INF, 1e-6),
         Anchor("hybrid minus PIM (ns)", None,
                lambda p: _v(p, "total_time", strategy="hybrid")
                - _v(p, "total_time", strategy="pim"), -INF, 1e-6),
         Anchor("parts where CPU beats PIM", None, lambda p: _wins(p, "cpu", "pim"), 1, INF),
         Anchor("parts where PIM beats CPU", None, lambda p: _wins(p, "pim", "cpu"), 1, INF)],
    ),
    "fig12b": Figure(
        "Fig. 12b — Q6 time vs WRAM size, original PIM vs PUSHtap",
        lambda config: fig12.wram_size_sweep(config=config),
        [("controller", _col("controller")),
         ("WRAM", _col("wram_bytes", lambda b: f"{b // 1024} kB")),
         ("Q6 time", _col("q6_time", ns)), ("control share", _col("control_fraction", pct))],
        [Anchor("original speed-up, 16 -> 256 kB", 6.4,
                lambda p: _wram(p, "q6_time", "original", 16) / _wram(p, "q6_time", "original", 256),
                4, 10),
         Anchor("original / PUSHtap Q6 time at 64 kB", 3.0,
                lambda p: _wram(p, "q6_time", "original", 64) / _wram(p, "q6_time", "pushtap", 64),
                2, 5),
         Anchor("original control share at 16 kB", 0.888,
                lambda p: _wram(p, "control_fraction", "original", 16), 0.8, INF),
         Anchor("original control share at 256 kB", 0.353,
                lambda p: _wram(p, "control_fraction", "original", 256), -INF, 0.6),
         Anchor("PUSHtap control share at 64 kB", 0.07,
                lambda p: _wram(p, "control_fraction", "pushtap", 64), -INF, 0.15),
         Anchor("CPU blocked at 64 kB, original minus PUSHtap (ns)", None,
                lambda p: _wram(p, "cpu_blocked_time", "original", 64)
                - _wram(p, "cpu_blocked_time", "pushtap", 64), EPS, INF)],
    ),
    "a1": Figure(
        "A1 — block-circulant placement on/off (Fig. 5a vs 5b)",
        lambda config: ablations.circulant_ablation(config=config),
        [("placement", _col("circulant", lambda on: "circulant" if on else "naive (pinned)")),
         ("PIM units used", _col("units_used")), ("scan time", _col("scan_time", ns)),
         ("matches", _col("matches"))],
        [Anchor("matches, circulant minus pinned", None, lambda p: p[0].matches - p[1].matches, 0, 0),
         Anchor("PIM units used, circulant minus pinned", None,
                lambda p: p[0].units_used - p[1].units_used, 1, INF),
         Anchor("scan time, pinned / circulant", None,
                lambda p: p[1].scan_time / p[0].scan_time, 2, INF)],
    ),
    "a2": Figure(
        "A2 — bin-packer leftover policy at th=0.6",
        lambda config: ablations.leftover_policy_ablation(config=config),
        [("policy", _col("policy")), ("padding", _col("padding_fraction", pct)),
         ("PIM eff bw", _col("pim_bandwidth", pct))],
        [Anchor("padding, pad minus absorb", None,
                lambda p: p[0].padding_fraction - p[1].padding_fraction, EPS, INF),
         Anchor("PIM eff bw, pad minus absorb", None,
                lambda p: p[0].pim_bandwidth - p[1].pim_bandwidth, 0, INF)],
    ),
    "a3": Figure(
        "A3 — th surfacing in measured Q6 latency",
        lambda config: ablations.th_latency_ablation(config=config),
        [("th", _col("th")), ("Q6 time", _col("q6_time", ns)), ("revenue", _col("revenue"))],
        [Anchor("distinct Q6 revenues", None, lambda p: len({q.revenue for q in p}), 1, 1),
         Anchor("Q6 time, th=0 minus th=1 (ns)", None,
                lambda p: p[0].q6_time - p[-1].q6_time, 0, INF)],
    ),
    "a4": Figure(
        "A4 — key-column PIM scan vs normal-column CPU fallback",
        lambda config: ablations.key_column_fallback_ablation(config=config),
        [("path", _col("path")), ("scan time", _col("scan_time", ns))],
        [Anchor("CPU fallback / PIM scan time", None,
                lambda p: p[1].scan_time / p[0].scan_time, 5, INF)],
    ),
}


def as_json(points: Points) -> list:
    """A figure's points as plain JSON values (what the baseline pins)."""
    return json.loads(json.dumps([asdict(p) if is_dataclass(p) else p for p in points]))


def _number(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:,.6g}"


def render(figure_id: str, points: Points) -> str:
    """One figure's table followed by its paper anchors."""
    figure = FIGURES[figure_id]
    table = format_table(
        [header for header, _ in figure.columns],
        [[cell(point, points) for _, cell in figure.columns] for point in points],
    )
    anchors = format_table(
        ["anchor", "paper", "measured", "band", "in band"],
        [
            [a.name, _number(a.paper), _number(a.value(points)),
             f"[{_number(a.lo)}, {_number(a.hi)}]", "yes" if a.holds(points) else "NO"]
            for a in figure.anchors
        ],
    )
    return f"=== {figure_id}: {figure.title} ===\n{table}\n\n{anchors}"
