"""Structured tracer: turns the flat span log into a timeline forest.

The telemetry layer records :class:`~repro.telemetry.metrics.SpanEvent`
objects — ``(name, start, duration, attrs, parent)`` on one simulated
clock. This module builds the structure those spans record:

* **Nesting** is read from each span's ``parent`` index, which the
  registry records: a ``tel.span`` frame (``olap.query``, the operator
  spans, ``workload.interval``) parents the spans recorded inside it,
  and each per-unit lane names its phase span. Nothing is inferred from
  times.
* **Tracks** group spans by the hardware/software resource they occupy
  (CPU OLTP, CPU OLAP, controller, PIM phases, individual PIM units,
  defrag), mirroring the row layout of a Perfetto / chrome://tracing
  view.
* **Self time** (exclusive time) is a span's duration minus the time
  covered by its children — the quantity bottleneck ranking sorts by.

Everything here is pure post-processing: the tracer never mutates the
registry and costs nothing while the simulation runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import SpanEvent

__all__ = ["TraceSpan", "Tracer", "default_track"]

class TraceSpan:
    """One span enriched with track, parent/child links, and self time."""

    __slots__ = (
        "index",
        "name",
        "start",
        "duration",
        "attrs",
        "track",
        "parent",
        "children",
    )

    def __init__(
        self,
        index: int,
        name: str,
        start: float,
        duration: float,
        attrs: Dict[str, object],
        track: str,
    ) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.duration = duration
        self.attrs = attrs
        self.track = track
        self.parent: Optional["TraceSpan"] = None
        self.children: List["TraceSpan"] = []

    @property
    def end(self) -> float:
        """Span end on the simulated timeline."""
        return self.start + self.duration

    @property
    def self_time(self) -> float:
        """Exclusive time: duration minus the union of child windows.

        Children of parallel tracks (per-unit spans under a phase) can
        overlap each other, so the *union* of their windows is
        subtracted, not the sum — and the result is clamped at zero.
        """
        if not self.children:
            return self.duration
        covered = 0.0
        cur_start: Optional[float] = None
        cur_end = 0.0
        for child in sorted(self.children, key=lambda s: s.start):
            if cur_start is None:
                cur_start, cur_end = child.start, child.end
            elif child.start <= cur_end:
                cur_end = max(cur_end, child.end)
            else:
                covered += cur_end - cur_start
                cur_start, cur_end = child.start, child.end
        if cur_start is not None:
            covered += cur_end - cur_start
        return max(0.0, self.duration - covered)

    @property
    def stack(self) -> Tuple[str, ...]:
        """Root-to-leaf name path (for folded-stack export)."""
        names: List[str] = []
        node: Optional[TraceSpan] = self
        while node is not None:
            names.append(node.name)
            node = node.parent
        return tuple(reversed(names))

    def __repr__(self) -> str:
        return (
            f"TraceSpan({self.name!r}, start={self.start}, "
            f"dur={self.duration}, track={self.track!r})"
        )


def default_track(name: str, attrs: Dict[str, object]) -> str:
    """Map a span name to its timeline track.

    Track names use ``/`` to separate a process-like group from a
    thread-like lane, matching the pid/tid split of the Chrome trace
    exporter.
    """
    if name.startswith("pim.unit."):
        device = attrs.get("device")
        bank = attrs.get("bank")
        if device is not None and bank is not None:
            return f"pim/dev{int(device):02d}.bank{int(bank):02d}"
        unit = attrs.get("unit")
        if unit is not None:
            return f"pim/unit{int(unit):03d}"
        return "pim/units"
    if name.startswith("pim.control") or name.startswith("faults."):
        return "controller/launch"
    if name.startswith("pim."):
        return "pim/phases"
    if name.startswith("oltp."):
        return "cpu/oltp"
    if name.startswith("olap."):
        return "cpu/olap"
    if name.startswith("defrag."):
        return "defrag/run"
    if name.startswith("workload."):
        return "cpu/workload"
    if name.startswith("serve."):
        tenant = attrs.get("tenant")
        if tenant is not None:
            return f"serve/tenant{int(tenant):02d}"
        return "serve/scheduler"
    if name.startswith("cluster."):
        shard = attrs.get("shard")
        if shard is not None:
            return f"cluster/shard{int(shard):02d}"
        return "cluster/coordinator"
    return "misc/other"


class Tracer:
    """Builds the span forest from a flat span log.

    ``Tracer(registry.spans)`` is the usual entry point; the resulting
    :attr:`spans` list preserves the original recording order and every
    span carries its recorded parent, its children, track, and self time.
    """

    def __init__(self, events: Sequence[SpanEvent]) -> None:
        spans = [
            TraceSpan(
                index=i,
                name=ev.name,
                start=ev.start,
                duration=ev.duration,
                attrs=dict(ev.attrs),
                track=default_track(ev.name, dict(ev.attrs)),
            )
            for i, ev in enumerate(events)
        ]
        for span, event in zip(spans, events):
            if event.parent is not None:
                span.parent = spans[event.parent]
                span.parent.children.append(span)
        #: All spans, in original recording order.
        self.spans: List[TraceSpan] = spans

    @property
    def tracks(self) -> Dict[str, List[TraceSpan]]:
        """Spans grouped by track, each group in recording order."""
        out: Dict[str, List[TraceSpan]] = {}
        for span in self.spans:
            out.setdefault(span.track, []).append(span)
        return out

    @property
    def leaves(self) -> List[TraceSpan]:
        """Spans with no children, in recording order."""
        return [s for s in self.spans if not s.children]

    def end_time(self) -> float:
        """Latest span end (0.0 for an empty trace)."""
        return max((s.end for s in self.spans), default=0.0)
