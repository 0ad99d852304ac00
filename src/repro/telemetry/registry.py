"""The metrics registry and the process-global telemetry switch.

A :class:`MetricsRegistry` owns every metric by dotted name plus the
span log. One registry is installed process-wide; it starts as the
shared no-op registry, so un-instrumented runs pay only an attribute
check per event. :func:`enable` swaps in a recording registry,
:func:`disable` swaps the no-op back.

Instrumented code follows one pattern::

    from repro import telemetry

    tel = telemetry.active()
    if tel.enabled:
        tel.counter("oltp.txn.committed").inc()
        tel.histogram("oltp.txn.payment.latency_ns").observe(t)
        tel.record_span("pim.phase.load", duration_ns, {"chunk": 0})

Names are hierarchical (``layer.component.metric``); :meth:`scope`
pushes a name prefix so nested code can use short local names.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional

from repro.telemetry.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    SpanEvent,
)

__all__ = [
    "MetricsRegistry",
    "NoopRegistry",
    "active",
    "enable",
    "disable",
    "enabled",
    "install",
]


class MetricsRegistry:
    """Holds every named metric and the span log of one run."""

    enabled = True

    def __init__(self, max_histogram_samples: Optional[int] = None) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.spans: List[SpanEvent] = []
        self._prefix: List[str] = []
        #: Cursor of the serial simulated timeline; spans recorded without
        #: an explicit start are laid out end-to-end from here.
        self._sim_cursor = 0.0
        #: When set, histograms created by this registry retain at most
        #: this many raw samples (deterministic decimation; exact
        #: count/sum/min/max either way). Long profiling runs set this.
        self.max_histogram_samples = max_histogram_samples
        #: When true, instrumented layers may emit fine-grained spans
        #: (e.g. per-PIM-unit load/compute) that are too voluminous for
        #: ordinary metric dumps. The profiler turns this on.
        self.detail_spans = False
        #: When true, instrumented layers emit roofline accounting —
        #: per-operator bandwidth/op-intensity counters, extended span
        #: attributes, and row-buffer shadow tracking. Off by default so
        #: committed BENCH baselines (exact key diffs) stay bit-identical;
        #: the ``roofline`` subcommand and report-metrics turn it on.
        self.roofline = False

    # ------------------------------------------------------------------
    # Metric access (create-on-first-use)
    # ------------------------------------------------------------------
    def _full(self, name: str) -> str:
        if not name:
            raise ValueError("metric name must be non-empty")
        return ".".join(self._prefix + [name]) if self._prefix else name

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        full = self._full(name)
        metric = self.counters.get(full)
        if metric is None:
            metric = self.counters[full] = Counter(full)
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        full = self._full(name)
        metric = self.gauges.get(full)
        if metric is None:
            metric = self.gauges[full] = Gauge(full)
        return metric

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        full = self._full(name)
        metric = self.histograms.get(full)
        if metric is None:
            metric = self.histograms[full] = Histogram(
                full, max_samples=self.max_histogram_samples
            )
        return metric

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def record_span(
        self,
        name: str,
        duration: float,
        attrs: Optional[Mapping[str, object]] = None,
        start: Optional[float] = None,
    ) -> SpanEvent:
        """Record one span of simulated time.

        Without an explicit ``start`` the span is appended at the current
        timeline cursor, which then advances by ``duration`` — matching
        the serial engine, where phases/queries/transactions follow each
        other on one simulated clock.
        """
        if duration < 0:
            raise ValueError(f"span {name!r}: negative duration {duration}")
        if start is None:
            start = self._sim_cursor
            self._sim_cursor = start + duration
        span = SpanEvent(
            self._full(name),
            start,
            duration,
            tuple(sorted(attrs.items())) if attrs else (),
        )
        self.spans.append(span)
        return span

    def record_window_span(
        self,
        name: str,
        base: float,
        attrs: Optional[Mapping[str, object]] = None,
    ) -> SpanEvent:
        """Record a wrapper span covering the cursor advance since ``base``.

        ``base`` must be an earlier value of :attr:`sim_time`.
        """
        return self.record_span(name, self._sim_cursor - base, attrs, start=base)

    def record_gap_span(
        self,
        name: str,
        total: float,
        base: float,
        attrs: Optional[Mapping[str, object]] = None,
    ) -> Optional[SpanEvent]:
        """Record the gap between ``total`` and the advance since ``base``.

        Used for host-side (CPU) time that a wrapped operation charged
        beyond what its sub-spans laid out on the timeline. Gaps at or
        below float noise are dropped.
        """
        gap = total - (self._sim_cursor - base)
        if gap > 1e-9:
            return self.record_span(name, gap, attrs)
        return None

    @property
    def sim_time(self) -> float:
        """Current cursor of the serial simulated timeline (ns)."""
        return self._sim_cursor

    def advance_to(self, ts: float) -> None:
        """Move the timeline cursor forward to ``ts`` (never backwards).

        Instrumented layers use this to align the cursor with the end of
        a wrapper span recorded at an explicit start, so later serial
        spans continue after it rather than overlapping it.
        """
        if ts > self._sim_cursor:
            self._sim_cursor = ts

    # ------------------------------------------------------------------
    # Scopes
    # ------------------------------------------------------------------
    @contextmanager
    def scope(self, name: str) -> Iterator["MetricsRegistry"]:
        """Prefix every metric/span name inside the block with ``name``."""
        if not name:
            raise ValueError("scope name must be non-empty")
        self._prefix.append(name)
        try:
            yield self
        finally:
            self._prefix.pop()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop every metric and span (prefixes survive)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.spans.clear()
        self._sim_cursor = 0.0


class NoopRegistry:
    """The disabled registry: every operation is a cheap no-op."""

    enabled = False
    counters: Dict[str, Counter] = {}
    gauges: Dict[str, Gauge] = {}
    histograms: Dict[str, Histogram] = {}
    spans: List[SpanEvent] = []
    sim_time = 0.0
    max_histogram_samples = None
    detail_spans = False
    roofline = False

    def counter(self, name: str) -> "Counter":
        """The shared null counter."""
        return NULL_COUNTER  # type: ignore[return-value]

    def gauge(self, name: str) -> "Gauge":
        """The shared null gauge."""
        return NULL_GAUGE  # type: ignore[return-value]

    def histogram(self, name: str) -> "Histogram":
        """The shared null histogram."""
        return NULL_HISTOGRAM  # type: ignore[return-value]

    def record_span(self, name, duration, attrs=None, start=None) -> None:
        """Discard the span."""
        return None

    def record_window_span(self, name, base, attrs=None) -> None:
        """Discard the span."""
        return None

    def record_gap_span(self, name, total, base, attrs=None) -> None:
        """Discard the span."""
        return None

    def advance_to(self, ts: float) -> None:
        """Nothing to advance."""

    @contextmanager
    def scope(self, name: str) -> Iterator["NoopRegistry"]:
        """No-op scope."""
        yield self

    def reset(self) -> None:
        """Nothing to drop."""


_NOOP = NoopRegistry()
_active: object = _NOOP


def active():
    """The currently installed registry (recording or no-op)."""
    return _active


def enabled() -> bool:
    """Whether telemetry is currently recording."""
    return _active.enabled  # type: ignore[union-attr]


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (and return) a recording registry process-wide.

    A fresh registry is created unless one is passed in; enabling twice
    without an argument keeps the already-recording registry.
    """
    global _active
    if registry is not None:
        _active = registry
    elif not isinstance(_active, MetricsRegistry):
        _active = MetricsRegistry()
    return _active  # type: ignore[return-value]


def disable() -> None:
    """Swap the no-op registry back in (recorded data is dropped)."""
    global _active
    _active = _NOOP


def install(registry) -> None:
    """Install an arbitrary registry object (tests use this)."""
    global _active
    _active = registry
