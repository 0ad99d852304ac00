"""Exporters: registry ↔ dict/JSON, plus flat CSV and a text report.

The JSON form is lossless for counters, gauges, histograms (raw samples
are included) and the span tree (each span keeps its parent index), so
``from_json(to_json(reg))`` reproduces every summary statistic and self
time exactly — the property the exporter tests lock in.
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

#: Schema version stamped into every export (2: each span keeps its parent).
FORMAT_VERSION = 2


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

    A dump of another version, a histogram without its raw samples, a
    span without a valid ``parent`` or a span that is its own ancestor
    raises ``ValueError`` naming it, rather than reloading as statistics
    that read 0 or a forest of roots.
    """
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"dump version {version!r} is not {FORMAT_VERSION}")
    registry = MetricsRegistry()
    for name, value in data.get("counters", {}).items():
        registry.counters[name] = Counter(name, value)
    for name, value in data.get("gauges", {}).items():
        registry.gauges[name] = Gauge(name, value)
    for name, summary in data.get("histograms", {}).items():
        if "samples" not in summary:
            raise ValueError(f"histogram {name!r} has no samples")
        registry.histograms[name] = Histogram(name, summary["samples"])
    spans = data.get("spans", [])
    for index, span in enumerate(spans):
        parent = span.get("parent", -1)
        if parent is not None and not (isinstance(parent, int) and 0 <= parent < len(spans)):
            raise ValueError(f"span {index} ({span['name']!r}) has no valid parent")
        registry.spans.append(
            SpanEvent(
                span["name"],
                span["start"],
                span["duration"],
                tuple(sorted(span.get("attrs", {}).items())),
                parent,
            )
        )
    # A closed frame's index is above its children's: refuse cycles, not an order.
    settled = set()
    for index in range(len(spans)):
        chain, node = [], index
        while node is not None and node not in settled:
            if node in chain:
                raise ValueError(f"span {node} ({spans[node]['name']!r}) is its own ancestor")
            chain.append(node)
            node = registry.spans[node].parent
        settled.update(chain)
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


def render_report(registry: MetricsRegistry) -> str:
    """Human-readable summary of a registry (the CLI's output)."""
    from repro.report import format_table, format_time_ns

    sections: List[str] = []
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
        from repro.trace.analysis import name_stats
        from repro.trace.tracer import Tracer

        stats = name_stats(Tracer(registry.spans))
        sections.append("spans (aggregated):")
        sections.append(
            format_table(
                ["name", "count", "total simulated time", "self time"],
                [
                    [n, s.count, format_time_ns(s.total_time), format_time_ns(s.self_time)]
                    for n, s in sorted(stats.items())
                ],
            )
        )
    if not sections:
        return "(no telemetry recorded)"
    return "\n".join(sections)
