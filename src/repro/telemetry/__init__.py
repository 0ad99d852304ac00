"""Lightweight metrics + tracing over the simulated HTAP stack.

Every runtime layer (PIM controller/executor, OLTP, OLAP, defrag,
workload driver) reports into one process-global registry:

* **counters** — launches, polls, handovers, commits, aborts, bytes;
* **gauges** — point-in-time values;
* **histograms** — latency distributions with exact p50/p95/p99;
* **spans** — named intervals on the *simulated* timeline.

Telemetry is off by default (the no-op registry is installed), so
benchmark runs pay only an attribute check per event. Turn it on around
a run and export::

    from repro import telemetry
    from repro.telemetry import export

    reg = telemetry.enable()
    ...  # run transactions / queries
    open("metrics.json", "w").write(export.to_json(reg))
    telemetry.disable()

or view a dump with ``python -m repro.experiments report-metrics FILE``.
"""

from repro.telemetry.metrics import Counter, Gauge, Histogram, SpanEvent
from repro.telemetry.registry import (
    MetricsRegistry,
    NoopRegistry,
    active,
    disable,
    enable,
    install,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "SpanEvent",
    "MetricsRegistry",
    "NoopRegistry",
    "active",
    "disable",
    "enable",
    "install",
]
