"""Trace analysis: occupancy, critical path, and bottleneck ranking.

Three questions a PUSHtap-style time-breakdown study asks of a trace:

* **Where does each resource spend its time?** Per-track *occupancy* is
  the union of that track's span windows divided by the trace length —
  a track whose spans overlap (parallel PIM units) is not counted
  double.
* **What chain of work bounds end-to-end time?** The *critical path* is
  the maximum-weight chain of non-overlapping leaf spans, computed by
  weighted-interval scheduling over the leaf set. On the serial
  simulated clock this is exact; its weight equals the busy time of the
  serial timeline.
* **What should be optimised first?** The *bottleneck report* ranks
  span names by total exclusive (self) simulated time, which is where
  the cycles actually go — a wrapper with large total but near-zero
  self time is not a bottleneck, its children are.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.trace.tracer import Tracer, TraceSpan, interval_union

__all__ = [
    "TrackStats",
    "NameStats",
    "track_stats",
    "name_stats",
    "critical_path",
    "BottleneckReport",
    "analyze",
]


@dataclass
class TrackStats:
    """Aggregate statistics of one timeline track."""

    track: str
    count: int = 0
    total_time: float = 0.0
    busy_time: float = 0.0
    occupancy: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """Mapping used by the benchmark snapshot."""
        return {
            "count": self.count,
            "total_ns": self.total_time,
            "busy_ns": self.busy_time,
            "occupancy": self.occupancy,
        }


@dataclass
class NameStats:
    """Aggregate statistics of one span name."""

    name: str
    count: int = 0
    total_time: float = 0.0
    self_time: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """Mapping used by the benchmark snapshot."""
        return {
            "count": self.count,
            "total_ns": self.total_time,
            "self_ns": self.self_time,
        }


def track_stats(tracer: Tracer) -> Dict[str, TrackStats]:
    """Per-track count, total, busy (union), and occupancy."""
    horizon = tracer.end_time()
    out: Dict[str, TrackStats] = {}
    for track, spans in tracer.tracks.items():
        stats = TrackStats(track=track, count=len(spans))
        stats.total_time = sum(s.duration for s in spans)
        stats.busy_time = interval_union(spans)
        stats.occupancy = stats.busy_time / horizon if horizon > 0 else 0.0
        out[track] = stats
    return out


def name_stats(tracer: Tracer) -> Dict[str, NameStats]:
    """Per-span-name count, total (inclusive), and self (exclusive) time."""
    out: Dict[str, NameStats] = {}
    for span in tracer.spans:
        stats = out.get(span.name)
        if stats is None:
            stats = out[span.name] = NameStats(name=span.name)
        stats.count += 1
        stats.total_time += span.duration
        stats.self_time += span.self_time
    return out


def critical_path(tracer: Tracer) -> Tuple[List[TraceSpan], float]:
    """Maximum-weight chain of non-overlapping leaf spans.

    Weighted-interval scheduling over the leaves: sort by end time,
    binary-search the latest compatible predecessor, take the better of
    "skip" and "take". Zero-duration leaves contribute no weight and are
    excluded. Returns ``(path, weight)``.
    """
    leaves = sorted(
        (s for s in tracer.leaves if s.duration > 0.0), key=lambda s: s.end
    )
    n = len(leaves)
    if n == 0:
        return [], 0.0
    ends = [s.end for s in leaves]

    # prev[i]: index of the last leaf ending at or before leaves[i].start.
    prev = [bisect.bisect_right(ends, leaves[i].start + 1e-9) - 1 for i in range(n)]
    best = [0.0] * (n + 1)
    take = [False] * n
    for i in range(n):
        with_i = leaves[i].duration + best[prev[i] + 1]
        if with_i > best[i]:
            best[i + 1] = with_i
            take[i] = True
        else:
            best[i + 1] = best[i]
    path: List[TraceSpan] = []
    i = n - 1
    while i >= 0:
        if take[i]:
            path.append(leaves[i])
            i = prev[i]
        else:
            i -= 1
    path.reverse()
    return path, best[n]


@dataclass
class BottleneckReport:
    """Ranked attribution of simulated time, plus the critical path."""

    tracks: Dict[str, TrackStats] = field(default_factory=dict)
    names: Dict[str, NameStats] = field(default_factory=dict)
    #: Span names ranked by total self time, descending.
    ranked: List[NameStats] = field(default_factory=list)
    critical_path: List[TraceSpan] = field(default_factory=list)
    critical_path_time: float = 0.0
    trace_end: float = 0.0

    def render(self, top: int = 10) -> str:
        """Human-readable report (the CLI's output)."""
        from repro.report import format_percent, format_table, format_time_ns

        sections: List[str] = []
        total_self = sum(s.self_time for s in self.names.values()) or 1.0
        sections.append(f"bottlenecks (top {min(top, len(self.ranked))} by self time):")
        sections.append(
            format_table(
                ["rank", "span", "count", "self time", "share", "total time"],
                [
                    [
                        i + 1,
                        s.name,
                        s.count,
                        format_time_ns(s.self_time),
                        format_percent(s.self_time / total_self),
                        format_time_ns(s.total_time),
                    ]
                    for i, s in enumerate(self.ranked[:top])
                ],
            )
        )
        sections.append("")
        sections.append("track occupancy:")
        sections.append(
            format_table(
                ["track", "spans", "busy", "occupancy"],
                [
                    [
                        t.track,
                        t.count,
                        format_time_ns(t.busy_time),
                        format_percent(t.occupancy),
                    ]
                    for t in sorted(
                        self.tracks.values(), key=lambda t: -t.busy_time
                    )
                ],
            )
        )
        sections.append("")
        sections.append(
            f"critical path: {len(self.critical_path)} spans, "
            f"{format_time_ns(self.critical_path_time)} of "
            f"{format_time_ns(self.trace_end)} "
            f"({format_percent(self.critical_path_time / self.trace_end if self.trace_end else 0.0)})"
        )
        by_name: Dict[str, float] = {}
        for span in self.critical_path:
            by_name[span.name] = by_name.get(span.name, 0.0) + span.duration
        if by_name:
            sections.append(
                format_table(
                    ["span", "critical time"],
                    [
                        [name, format_time_ns(t)]
                        for name, t in sorted(by_name.items(), key=lambda kv: -kv[1])
                    ],
                )
            )
        return "\n".join(sections)


def analyze(tracer: Tracer) -> BottleneckReport:
    """Run the full analysis over a tracer."""
    names = name_stats(tracer)
    path, weight = critical_path(tracer)
    return BottleneckReport(
        tracks=track_stats(tracer),
        names=names,
        ranked=sorted(names.values(), key=lambda s: -s.self_time),
        critical_path=path,
        critical_path_time=weight,
        trace_end=tracer.end_time(),
    )
