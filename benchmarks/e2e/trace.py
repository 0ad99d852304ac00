"""Outside-in layer trace: span recorders around repro's public callables.

The traced pass of the benchmark wraps the callables listed in
``layers.json`` (data, not code) with span recorders and keeps, per span
name, its *self time* (duration minus the time of the spans it caused)
and its call count; a few counts (bytes, rows, flushes) are taken at the
same boundaries. Nothing in ``src/`` is edited: the wrappers are set on
the owning class or module for the length of one traced leg and removed
again, so the untraced legs of the same process run the original code.

Every span is accounted exactly; the Chrome trace written at exit keeps
every harness-level operation (``bench.*``) but only a budget of nested
spans per kind of operation, because one engine build alone opens a few
million of them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "load_layers", "resolve"]

LAYERS_FILE = Path(__file__).with_name("layers.json")

#: Nested spans kept for the Chrome trace, per kind of operation.
EVENT_BUDGET = 5_000

#: What a broken count extractor can raise when a signature or a result
#: type changed under it; the count is then reported unresolved.
_EXTRACT_ERRORS = (AttributeError, IndexError, KeyError, TypeError)


def load_layers() -> Dict[str, Any]:
    """The span/count table."""
    return json.loads(LAYERS_FILE.read_text(encoding="utf-8"))


def resolve(path: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, attribute, raw attribute)`` of a dotted callable, or None.

    The raw attribute comes from the owner's ``__dict__`` when the owner
    is a class, so a ``classmethod``/``staticmethod`` keeps its wrapper.
    """
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        owner = None
        for name in parts[cut:]:
            owner, obj = obj, getattr(obj, name, None)
            if obj is None:
                return None
        if isinstance(owner, type):
            obj = vars(owner).get(parts[-1], obj)
        return owner, parts[-1], obj
    return None


def walk(obj: Any, path: str) -> float:
    """Follow ``a.b.*.c`` through attributes and mapping keys; ``*`` sums.

    Raises one of ``_EXTRACT_ERRORS`` when a step does not resolve.
    """
    head, _, rest = path.partition(".")
    if head == "*":
        children = obj.values() if isinstance(obj, dict) else list(obj)
        return sum(walk(child, rest) if rest else child for child in children)
    child = obj[head] if isinstance(obj, dict) else getattr(obj, head)
    return walk(child, rest) if rest else child


class Tracer:
    """Span stack, per-name aggregates, counts and the Chrome event list."""

    def __init__(self) -> None:
        self.layers = load_layers()
        #: Thread CPU time, like every host time of the benchmark.
        self.clock = time.thread_time
        #: Open spans, innermost last: [name, start, child seconds, call
        #: increment, end of the latest child, always in the Chrome trace].
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        #: Targets and counts that did not resolve (never an error).
        self.unresolved: List[str] = []
        #: Broken span invariants found while recording.
        self.errors: List[str] = []
        #: (name, start, end, operation id, parent name)
        self.events: List[Tuple[str, float, float, int, str]] = []
        self.dropped_events = 0
        self.root_s = 0.0
        self._op = 0
        self._kind = ""
        #: Nested spans the Chrome trace may still take, per operation kind.
        self._budget: Dict[str, int] = defaultdict(lambda: EVENT_BUDGET)
        self._patched: List[Tuple[Any, str, Any]] = []
        self._resolved_spans: set = set()
        self._dead_counts: set = set()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, name: str, call: int = 1, keep: bool = False) -> list:
        frame = [name, self.clock(), 0.0, call, 0.0, keep]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = self.clock()
        stack = self.stack
        if not stack or stack[-1] is not frame:
            self.errors.append(f"span {frame[0]} closed out of order")
            while stack and stack.pop() is not frame:
                pass
        else:
            stack.pop()
        name, start, child_s, call, last_child_end, keep = frame
        if last_child_end > end:
            self.errors.append(f"span {name} ends before its last child")
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        self.calls[name] = self.calls.get(name, 0) + call
        if stack:
            parent = stack[-1]
            if start < parent[1]:
                self.errors.append(f"span {name} starts before its parent {parent[0]}")
            parent[2] += duration
            parent[4] = end
            parent_name = parent[0]
        else:
            self.root_s += duration
            parent_name = ""
        if not keep:
            if self._budget[self._kind] <= 0:
                self.dropped_events += 1
                return
            self._budget[self._kind] -= 1
        self.events.append((name, start, end, self._op, parent_name))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A harness-level span (``bench.*``): the root, a phase."""
        frame = self._open(name, keep=True)
        try:
            yield
        finally:
            self._close(frame)

    @contextmanager
    def operation(self, kind: str) -> Iterator[None]:
        """One operation issued by the harness; its spans share an id."""
        self._op += 1
        self._kind = kind
        try:
            with self.span("bench." + kind):
                yield
        finally:
            self._kind = ""

    def record(self, name: str, seconds: float) -> None:
        """Account a span the harness timed itself (an untraced leg)."""
        self.self_s[name] = self.self_s.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1
        self._resolved_spans.add(name)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        open_, close = self._open, self._close
        if inspect.isgeneratorfunction(fn):
            # A generator's time is the time inside its resumptions; the
            # consumer's work between two items belongs to the consumer.
            def traced_generator(*args, **kwargs):
                self.calls[name] = self.calls.get(name, 0) + 1
                iterator = fn(*args, **kwargs)
                while True:
                    frame = open_(name, 0)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        close(frame)
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs, None)
            frame = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _extractor(self, spec: Dict[str, Any]) -> Callable:
        """The count a span keeps, described by ``take`` in the table."""
        cname, take, counts = spec["name"], spec["take"], self.counts
        counts.setdefault(cname, 0)
        if take in ("arg", "arg_len"):
            index, keyword = spec["index"], spec["keyword"]
            size = len if take == "arg_len" else int

            def inner(args, kwargs, result):
                value = args[index] if len(args) > index else kwargs[keyword]
                counts[cname] += size(value)

        elif take == "result_attr":
            attr = spec["attr"]

            def inner(args, kwargs, result):
                counts[cname] += int(getattr(result, attr))

        elif take == "self_call_max":
            attr = spec["attr"]

            def inner(args, kwargs, result):
                counts[cname] = max(counts[cname], getattr(args[0], attr)())

        else:
            raise ValueError(f"layers.json: unknown take {take!r} for {cname}")

        def guarded(args, kwargs, result):
            if cname in self._dead_counts:
                return
            try:
                inner(args, kwargs, result)
            except _EXTRACT_ERRORS:
                self._dead_counts.add(cname)

        return guarded

    def install(self) -> None:
        """Wrap every target that resolves; list the others."""
        span_counts: Dict[str, Dict[str, Any]] = {}
        for spec in self.layers["counts"]:
            if "span" in spec:
                span_counts[spec["span"]] = spec
        for span in self.layers["spans"]:
            name = span["name"]
            spec = span_counts.get(name)
            extractor = self._extractor(spec) if spec else None
            runs_before = bool(spec) and spec["take"] == "self_call_max"
            for index, target in enumerate(span["targets"]):
                found = resolve(target)
                if found is None or not callable(getattr(found[2], "__func__", found[2])):
                    self.unresolved.append(target)
                    continue
                owner, attr, raw = found
                # A count reads the first target's arguments or result;
                # further targets of the span only add time and calls.
                mine = extractor if index == 0 else None
                before, after = (mine, None) if runs_before else (None, mine)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped: Any = type(raw)(self._wrap(raw.__func__, name, before, after))
                else:
                    wrapped = self._wrap(raw, name, before, after)
                setattr(owner, attr, wrapped)
                self._patched.append((owner, attr, raw))
                self._resolved_spans.add(name)
                self.self_s.setdefault(name, 0.0)
                self.calls.setdefault(name, 0)

    def uninstall(self) -> None:
        """Put the original callables back."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def harvest(self, engines=(), cluster=None, serve_report=None) -> None:
        """Read the counts the program keeps itself, off its public objects."""
        for spec in self.layers["counts"]:
            name = spec["name"]
            try:
                if "engine" in spec:
                    self.counts[name] = sum(walk(e, spec["engine"]) for e in engines)
                elif "cluster" in spec:
                    self.counts[name] = (
                        0 if cluster is None else walk(cluster, spec["cluster"])
                    )
                elif "serve" in spec:
                    self.counts[name] = (
                        0 if serve_report is None else walk(serve_report, spec["serve"])
                    )
            except _EXTRACT_ERRORS:
                self._dead_counts.add(name)

    def metrics(self) -> Dict[str, Optional[float]]:
        """Every per-layer metric of the table; null where unresolved."""
        out: Dict[str, Optional[float]] = {}
        for span in self.layers["spans"]:
            name = span["name"]
            resolved = name in self._resolved_spans or not span["targets"]
            out[name + ".self_s"] = self.self_s.get(name, 0.0) if resolved else None
            out[name + ".calls"] = self.calls.get(name, 0) if resolved else None
        for spec in self.layers["counts"]:
            name = spec["name"]
            dead = name in self._dead_counts or (
                "span" in spec and spec["span"] not in self._resolved_spans
            )
            out[name] = None if dead else self.counts.get(name, 0)
        return out

    def unresolved_names(self) -> List[str]:
        """Targets and counts that did not resolve."""
        return sorted(set(self.unresolved) | self._dead_counts)

    def self_check(self) -> List[str]:
        """Span invariants: nothing left open, nothing out of order, and
        the self times add up to the root span within 1 %."""
        errors = list(self.errors[:20])
        if self.stack:
            errors.append(f"{len(self.stack)} span(s) left open")
        total = sum(
            seconds
            for name, seconds in self.self_s.items()
            if name != "parallel.run"  # timed by the harness outside the root
        )
        if self.root_s <= 0.0:
            errors.append("no root span recorded")
        elif abs(total - self.root_s) > 0.01 * self.root_s:
            errors.append(
                f"self times sum to {total:.6f} s but the root spans last "
                f"{self.root_s:.6f} s"
            )
        return errors

    def write_chrome_trace(self, path: Path) -> None:
        """Write the kept events as Chrome trace JSON (Perfetto opens it)."""
        layer_of = {s["name"]: s["layer"] for s in self.layers["spans"]}
        origin = min((e[1] for e in self.events), default=0.0)
        trace_events = [
            {
                "name": name,
                "cat": layer_of.get(name, "bench"),
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"op": op, "parent": parent},
            }
            for name, start, end, op, parent in sorted(
                self.events, key=lambda e: (e[1], -e[2])
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "traceEvents": trace_events,
                    "displayTimeUnit": "ms",
                    "otherData": {
                        "dropped_nested_spans": self.dropped_events,
                        "unresolved": self.unresolved_names(),
                    },
                },
                fh,
            )
