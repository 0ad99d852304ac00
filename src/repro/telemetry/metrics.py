"""Metric primitives: counters, gauges, and sample-backed histograms.

These are dependency-free value holders. They carry no locking (the
simulator is single-threaded) and no wall-clock reads — every observed
quantity is *simulated* time or a count, supplied by the caller.

Each class has a ``Null*`` twin whose mutators are no-ops; the registry
hands those out when telemetry is disabled so instrumented code pays
(nearly) nothing on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, floor
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "SpanEvent",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
]

#: Quantiles every histogram summary reports.
SUMMARY_QUANTILES = (0.50, 0.95, 0.99)


class Counter:
    """A monotonically increasing count (events, bytes, rows, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value that can move both ways (depths, fractions)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A latency/size distribution that keeps every raw sample.

    Keeping samples exact (rather than bucketed) is affordable at
    simulator scale and makes quantiles and exporter round-trips exact.
    """

    __slots__ = ("name", "_samples", "_sorted", "_sum", "_min", "_max")

    def __init__(self, name: str, samples: Optional[List[float]] = None) -> None:
        self.name = name
        self._samples: List[float] = []
        self._sorted = False
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        if samples:
            for value in samples:
                self.observe(value)

    def observe(self, value: float) -> None:
        """Record one sample."""
        self._samples.append(value)
        self._sorted = False
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    @property
    def samples(self) -> List[float]:
        """Every recorded sample."""
        return list(self._samples)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    @property
    def sum(self) -> float:
        """Sum of all samples."""
        return self._sum

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        return self._sum / len(self._samples) if self._samples else 0.0

    @property
    def min(self) -> float:
        """Smallest sample (0.0 when empty)."""
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        """Largest sample (0.0 when empty)."""
        return self._max if self._max is not None else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile ``q`` in [0, 1] (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return 0.0
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        pos = q * (len(self._samples) - 1)
        lo, hi = floor(pos), ceil(pos)
        if lo == hi:
            return self._samples[lo]
        frac = pos - lo
        return self._samples[lo] * (1.0 - frac) + self._samples[hi] * frac

    @property
    def p50(self) -> float:
        """Median."""
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        """95th percentile."""
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        """99th percentile."""
        return self.quantile(0.99)

    def as_dict(self) -> Dict[str, object]:
        """Summary and raw samples, as the exporters write them."""
        out: Dict[str, object] = {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        for q in SUMMARY_QUANTILES:
            out[f"p{int(q * 100)}"] = self.quantile(q)
        out["samples"] = self.samples
        return out

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count})"


@dataclass
class SpanEvent:
    """One span on the simulated timeline.

    ``start`` and ``duration`` are simulated nanoseconds supplied by the
    instrumented layer — the simulator has no wall clock to measure.
    ``parent`` is the index of the enclosing span in the registry's span
    log (``None`` for a root); a span recorded inside an open frame gets
    it when that frame closes.
    """

    name: str
    start: float
    duration: float
    attrs: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)
    parent: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        """Mapping used by the exporters."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "parent": self.parent,
        }


class NullCounter:
    """No-op counter handed out when telemetry is disabled."""

    __slots__ = ()
    name = "<null>"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""


class NullGauge:
    """No-op gauge handed out when telemetry is disabled."""

    __slots__ = ()
    name = "<null>"
    value = 0.0

    def set(self, value: float) -> None:
        """Discard the value."""


class NullHistogram:
    """No-op histogram handed out when telemetry is disabled."""

    __slots__ = ()
    name = "<null>"
    samples: List[float] = []
    count = 0
    sum = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0
    p50 = 0.0
    p95 = 0.0
    p99 = 0.0

    def observe(self, value: float) -> None:
        """Discard the sample."""

    def quantile(self, q: float) -> float:
        """Always 0.0."""
        return 0.0

    def as_dict(self) -> Dict[str, object]:
        """Empty summary."""
        return {"count": 0, "sum": 0.0}


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()
