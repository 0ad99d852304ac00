"""Exporters: registry ↔ dict/JSON, plus flat CSV and a text report.

The JSON form is lossless for counters, gauges, and histograms (raw
samples are included), so ``from_json(to_json(reg))`` reproduces every
summary statistic exactly — the property the exporter tests lock in.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List

from repro.telemetry.metrics import Counter, Gauge, Histogram, SpanEvent
from repro.telemetry.registry import MetricsRegistry

__all__ = [
    "to_dict",
    "from_dict",
    "to_json",
    "from_json",
    "to_csv",
    "render_report",
]

#: Schema version stamped into every export.
FORMAT_VERSION = 1


def to_dict(registry: MetricsRegistry) -> Dict:
    """Serialize a registry to a plain dict (JSON-compatible)."""
    return {
        "version": FORMAT_VERSION,
        "counters": {n: c.value for n, c in sorted(registry.counters.items())},
        "gauges": {n: g.value for n, g in sorted(registry.gauges.items())},
        "histograms": {n: h.as_dict() for n, h in sorted(registry.histograms.items())},
        "spans": [s.as_dict() for s in registry.spans],
    }


def from_dict(data: Dict) -> MetricsRegistry:
    """Rebuild a registry from :func:`to_dict` output.

    A histogram must carry its raw samples: one without them raises
    ``ValueError`` naming it, rather than reloading as an empty
    histogram whose statistics would read 0.
    """
    registry = MetricsRegistry()
    for name, value in data.get("counters", {}).items():
        registry.counters[name] = Counter(name, value)
    for name, value in data.get("gauges", {}).items():
        registry.gauges[name] = Gauge(name, value)
    for name, summary in data.get("histograms", {}).items():
        if "samples" not in summary:
            raise ValueError(f"histogram {name!r} has no samples")
        registry.histograms[name] = Histogram(name, summary["samples"])
    for span in data.get("spans", []):
        registry.spans.append(
            SpanEvent(
                span["name"],
                span["start"],
                span["duration"],
                tuple(sorted(span.get("attrs", {}).items())),
            )
        )
    return registry


def to_json(registry: MetricsRegistry) -> str:
    """Serialize a registry to a JSON string."""
    return json.dumps(to_dict(registry), indent=2)


def from_json(text: str) -> MetricsRegistry:
    """Rebuild a registry from :func:`to_json` output."""
    return from_dict(json.loads(text))


def to_csv(registry: MetricsRegistry) -> str:
    """Flatten a registry to ``kind,name,field,value`` CSV rows."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["kind", "name", "field", "value"])
    for name, counter in sorted(registry.counters.items()):
        writer.writerow(["counter", name, "value", counter.value])
    for name, gauge in sorted(registry.gauges.items()):
        writer.writerow(["gauge", name, "value", gauge.value])
    for name, hist in sorted(registry.histograms.items()):
        for key, value in hist.as_dict().items():
            if key != "samples":
                writer.writerow(["histogram", name, key, value])
    for span in registry.spans:
        writer.writerow(["span", span.name, "start", span.start])
        writer.writerow(["span", span.name, "duration", span.duration])
    return buf.getvalue()


def _rowbuffer_rows(counters: Dict[str, Counter]) -> List[List[str]]:
    """Group ``*.rowbuffer.<lane>.*`` counters into per-lane rate rows."""
    lanes: Dict[str, Dict[str, float]] = {}
    for name, counter in counters.items():
        if ".rowbuffer." not in name:
            continue
        lane, _, metric = name.rpartition(".")
        if metric in ("hits", "misses", "conflicts", "bytes"):
            lanes.setdefault(lane, {})[metric] = counter.value
    rows: List[List[str]] = []
    for lane, stats in sorted(lanes.items()):
        hits = stats.get("hits", 0)
        misses = stats.get("misses", 0)
        conflicts = stats.get("conflicts", 0)
        accesses = hits + misses + conflicts
        if accesses <= 0:
            continue
        rows.append(
            [
                lane,
                f"{accesses:,.0f}",
                f"{hits / accesses:.1%}",
                f"{misses / accesses:.1%}",
                f"{conflicts / accesses:.1%}",
                f"{stats.get('bytes', 0):,.0f}",
            ]
        )
    return rows


def render_report(registry: MetricsRegistry) -> str:
    """Human-readable summary of a registry (the CLI's output)."""
    from repro.report import format_table, format_time_ns

    sections: List[str] = []
    rowbuffer_rows = _rowbuffer_rows(registry.counters)
    if rowbuffer_rows:
        sections.append("row buffer (per lane):")
        sections.append(
            format_table(
                ["lane", "accesses", "hit", "miss", "conflict", "bytes"],
                rowbuffer_rows,
            )
        )
    if registry.counters:
        sections.append("counters:")
        sections.append(
            format_table(
                ["name", "value"],
                [[n, f"{c.value:,.0f}"] for n, c in sorted(registry.counters.items())],
            )
        )
    if registry.gauges:
        sections.append("gauges:")
        sections.append(
            format_table(
                ["name", "value"],
                [[n, f"{g.value:,.2f}"] for n, g in sorted(registry.gauges.items())],
            )
        )
    if registry.histograms:
        sections.append("histograms:")
        sections.append(
            format_table(
                ["name", "count", "mean", "p50", "p95", "p99"],
                [
                    [
                        n,
                        h.count,
                        format_time_ns(h.mean),
                        format_time_ns(h.p50),
                        format_time_ns(h.p95),
                        format_time_ns(h.p99),
                    ]
                    for n, h in sorted(registry.histograms.items())
                ],
            )
        )
    if registry.spans:
        from repro.trace.tracer import Tracer

        totals: Dict[str, List[float]] = {}
        for span in Tracer(registry.spans).spans:
            entry = totals.setdefault(span.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span.duration
            entry[2] += span.self_time
        sections.append("spans (aggregated):")
        sections.append(
            format_table(
                ["name", "count", "total simulated time", "self time"],
                [
                    [n, int(count), format_time_ns(total), format_time_ns(self_t)]
                    for n, (count, total, self_t) in sorted(totals.items())
                ],
            )
        )
    if not sections:
        return "(no telemetry recorded)"
    return "\n".join(sections)
