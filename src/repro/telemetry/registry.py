"""The metrics registry and the process-global telemetry switch.

A :class:`MetricsRegistry` owns every metric by dotted name plus the
span log. One registry is installed process-wide; it starts as the
disabled registry, whose ``enabled`` flag is all an un-instrumented
run reads per event. :func:`enable` swaps in a recording registry,
:func:`disable` swaps the disabled one back.

Instrumented code follows one pattern::

    from repro.telemetry import registry as telemetry

    tel = telemetry.active()
    if tel.enabled:
        tel.histogram("oltp.txn.payment.latency_ns").observe(t)
        tel.record_span("pim.phase.load", duration_ns, {"chunk": 0})

    with tel.span("olap.query", {"query": "Q6"}):
        ...  # spans recorded here get the olap.query span as parent

An event that a stats record also counts is counted once, at one call
site, by :func:`count` (a field) or :func:`tally` (a dict entry), which
mirror it into the named counter while a registry records::

    telemetry.count(self.stats, "polls", "pim.controller.polls")

A parent is recorded, never inferred: an explicit ``parent=`` index (a
per-unit lane names its phase), else the innermost open frame, else none.

Names are hierarchical (``layer.component.metric``).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List, Mapping, Optional

from repro.telemetry.metrics import Counter, Gauge, Histogram, SpanEvent

__all__ = [
    "MetricsRegistry",
    "NoopRegistry",
    "active",
    "count",
    "tally",
    "enable",
    "disable",
    "install",
]


class MetricsRegistry:
    """Holds every named metric and the span log of one run."""

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.spans: List[SpanEvent] = []
        #: Cursor of the serial simulated timeline; spans recorded without
        #: an explicit start are laid out end-to-end from here.
        self._sim_cursor = 0.0
        #: Open :meth:`span` frames, innermost last.
        self._frames: List[_Frame] = []
        #: When true, instrumented layers emit roofline detail: each PIM
        #: phase's per-unit load/compute spans, and per-operator DRAM
        #: bytes, elements and bound counters with the matching span
        #: attributes. Off by default so the telemetry dump that
        #: ``pins.serve_state`` hashes stays bit-identical; the profiler,
        #: the ``roofline`` subcommand and the observed seven-query pin
        #: turn it on.
        self.roofline = False

    # ------------------------------------------------------------------
    # Metric access (create-on-first-use)
    # ------------------------------------------------------------------
    @staticmethod
    def _check(name: str) -> str:
        if not name:
            raise ValueError("metric name must be non-empty")
        return name

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(self._check(name))
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(self._check(name))
        return metric

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(self._check(name))
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
        parent: Optional[int] = None,
    ) -> SpanEvent:
        """Record one span of simulated time.

        Without an explicit ``start`` the span is appended at the current
        timeline cursor, which then advances by ``duration`` — matching
        the serial engine, where phases/queries/transactions follow each
        other on one simulated clock. ``parent`` is the index in
        :attr:`spans` of an already recorded parent; without one, the
        innermost open :meth:`span` frame (if any) becomes the parent.
        """
        if duration < 0:
            raise ValueError(f"span {name!r}: negative duration {duration}")
        if start is None:
            start = self._sim_cursor
            self._sim_cursor = start + duration
        span = SpanEvent(
            self._check(name),
            start,
            duration,
            tuple(sorted(attrs.items())) if attrs else (),
            parent,
        )
        if parent is None and self._frames:
            self._frames[-1].children.append(span)
        self.spans.append(span)
        return span

    def span(self, name: str, attrs: Optional[Mapping[str, object]] = None) -> "_Frame":
        """A frame: ``with tel.span(name, attrs) as frame:`` records, on a
        normal exit, a span over the cursor advance since ``frame.start``,
        after and as the parent of every span recorded inside it without
        an explicit parent. ``attrs`` is read on exit, so the body may
        still add to it."""
        return _Frame(self, name, attrs)

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


class NoopRegistry:
    """The disabled registry: its ``enabled`` flag guards every metric
    and span call, and its frame is the shared null context."""

    enabled = False

    def span(self, name, attrs=None) -> nullcontext:
        """The shared null frame."""
        return _NULL_FRAME


class _Frame:
    """One open :meth:`MetricsRegistry.span`."""

    __slots__ = ("registry", "name", "attrs", "start", "children")

    def __init__(self, registry: MetricsRegistry, name: str, attrs) -> None:
        self.registry = registry
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.children: List[SpanEvent] = []

    def __enter__(self) -> "_Frame":
        self.start = self.registry._sim_cursor
        self.registry._frames.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        registry = self.registry
        frames = registry._frames
        frames.pop()
        if exc_type is not None:
            # No wrapper is recorded for a body that raised; its spans
            # belong to the enclosing frame instead.
            if frames:
                frames[-1].children.extend(self.children)
            return
        index = len(registry.spans)
        for child in self.children:
            child.parent = index
        registry.record_span(
            self.name, registry._sim_cursor - self.start, self.attrs, start=self.start
        )


_NULL_FRAME = nullcontext()
_NOOP = NoopRegistry()
_active: object = _NOOP


def active():
    """The currently installed registry (recording or disabled)."""
    return _active


def count(owner, field: str, name: str, n=1) -> None:
    """Add ``n`` to ``owner.<field>`` and, while a registry records, to
    counter ``name``: the one count site of an event a stats record and
    a telemetry counter both keep."""
    setattr(owner, field, getattr(owner, field) + n)
    if _active.enabled:
        _active.counter(name).inc(n)


def tally(counts: Dict, key, name: str) -> None:
    """:func:`count` for the dict tally ``counts[key]``."""
    counts[key] = counts.get(key, 0) + 1
    if _active.enabled:
        _active.counter(name).inc()


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
    """Swap the disabled registry back in (recorded data is dropped)."""
    global _active
    _active = _NOOP


def install(registry) -> None:
    """Install an arbitrary registry object (tests use this)."""
    global _active
    _active = registry
