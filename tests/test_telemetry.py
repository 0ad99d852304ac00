"""Telemetry subsystem: metrics, registry, no-op mode, exporters."""

import ast
import pathlib
import re

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopRegistry,
    active,
    disable,
    enable,
    install,
)
from repro.telemetry import export, registry
from repro.telemetry.metrics import SpanEvent


@pytest.fixture(autouse=True)
def _restore_noop():
    """Every test leaves the process-global registry disabled."""
    yield
    disable()


class TestMetrics:
    def test_counter(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge("depth")
        g.set(10)
        g.set(7)
        assert g.value == 7

    def test_histogram_stats(self):
        h = Histogram("lat")
        for v in (10.0, 20.0, 30.0, 40.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 100.0
        assert h.mean == 25.0
        assert h.min == 10.0
        assert h.max == 40.0

    def test_histogram_quantiles_interpolate(self):
        h = Histogram("lat", samples=[0.0, 10.0, 20.0, 30.0, 40.0])
        assert h.p50 == 20.0
        assert h.quantile(0.25) == 10.0
        assert h.quantile(0.125) == pytest.approx(5.0)
        assert h.quantile(1.0) == 40.0
        assert h.quantile(0.0) == 0.0

    def test_histogram_quantile_after_late_observe(self):
        h = Histogram("lat")
        h.observe(30.0)
        h.observe(10.0)
        assert h.p50 == 20.0  # forces sort
        h.observe(0.0)  # invalidates cached sort order
        assert h.quantile(0.0) == 0.0

    def test_histogram_empty_and_bad_q(self):
        h = Histogram("lat")
        assert h.p99 == 0.0
        assert h.mean == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_histogram_as_dict(self):
        h = Histogram("lat", samples=[1.0, 2.0])
        d = h.as_dict()
        assert d["count"] == 2
        assert d["samples"] == [1.0, 2.0]
        assert set(d) >= {"p50", "p95", "p99", "mean", "min", "max"}

    def test_span_event(self):
        s = SpanEvent("pim.phase.load", start=100.0, duration=50.0)
        assert s.as_dict()["attrs"] == {}


class TestBoundedHistogram:
    """A histogram has no bound: it keeps every sample it observes."""

    def test_unbounded_keeps_everything(self):
        h = Histogram("lat")
        for v in range(100):
            h.observe(float(v))
        assert len(h.samples) == 100


class TestRegistry:
    def test_create_on_first_use_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        reg.counter("a.b").inc(3)
        assert reg.counters["a.b"].value == 3
        for make in (reg.counter, reg.gauge, reg.histogram):
            with pytest.raises(ValueError, match="non-empty"):
                make("")
        with pytest.raises(ValueError, match="non-empty"):
            reg.record_span("", 1.0)
        assert not reg.gauges and not reg.histograms and not reg.spans

    def test_spans_advance_sim_cursor(self):
        reg = MetricsRegistry()
        a = reg.record_span("x", 10.0)
        b = reg.record_span("y", 5.0)
        assert (a.start, a.duration) == (0.0, 10.0)
        assert (b.start, b.duration) == (10.0, 5.0)
        assert reg.sim_time == 15.0
        # An explicit start does not move the cursor.
        reg.record_span("z", 100.0, start=2.0)
        assert reg.sim_time == 15.0

    def test_advance_to_is_forward_only(self):
        reg = MetricsRegistry()
        reg.record_span("x", 10.0)
        reg.advance_to(5.0)
        assert reg.sim_time == 10.0
        reg.advance_to(25.0)
        assert reg.sim_time == 25.0
        span = reg.record_span("y", 5.0)
        assert span.start == 25.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().record_span("x", -1.0)

    def test_span_frames_record_parents_in_close_order(self):
        """A frame is recorded after its children and becomes their
        parent; an explicit ``parent`` wins; a span outside every frame
        is a root even at an explicit start."""
        reg = MetricsRegistry()
        with reg.span("outer", {"k": 1}):
            reg.record_span("a", 10.0)
            with reg.span("inner") as frame:
                assert frame.start == 10.0
                reg.record_span("b", 5.0)
                reg.record_span("lane", 3.0, start=10.0, parent=1)
            reg.record_span("c", 2.0, start=0.0)
        reg.record_span("root", 1.0, start=0.0)
        assert [(s.name, s.parent) for s in reg.spans] == [
            ("a", 5), ("b", 3), ("lane", 1), ("inner", 5), ("c", 5),
            ("outer", None), ("root", None),
        ]
        inner, outer = reg.spans[3], reg.spans[5]
        assert (inner.start, inner.duration) == (10.0, 5.0)
        assert (outer.start, outer.duration, outer.attrs) == (0.0, 15.0, (("k", 1),))
        assert reg.sim_time == 15.0

    def test_raising_frame_records_no_wrapper(self):
        """A frame whose body raises records nothing; the spans inside it
        go to the enclosing frame."""
        reg = MetricsRegistry()
        with reg.span("outer"):
            with pytest.raises(RuntimeError):
                with reg.span("inner"):
                    reg.record_span("a", 4.0)
                    raise RuntimeError("boom")
        assert [(s.name, s.parent) for s in reg.spans] == [("a", 1), ("outer", None)]


class _Record:
    """A stand-in stats record: one field and one dict tally."""

    def __init__(self):
        self.polls = 0
        self.by_kind = {}


class TestGlobalSwitch:
    def test_disabled_by_default(self):
        assert not active().enabled
        assert isinstance(active(), NoopRegistry)

    def test_enable_disable_cycle(self):
        reg = enable()
        assert active().enabled
        assert active() is reg
        # Enabling again without an argument keeps the same registry.
        assert enable() is reg
        disable()
        assert not active().enabled

    def test_install_custom_registry(self):
        mine = MetricsRegistry()
        install(mine)
        assert active() is mine

    def test_noop_mode_records_nothing(self):
        """The disabled registry is a flag: it has no metric getters, and
        a count on it updates only the record."""
        noop = active()
        for getter in ("counter", "gauge", "histogram", "record_span", "advance_to"):
            assert not hasattr(noop, getter)
        record = _Record()
        registry.count(record, "polls", "pim.controller.polls", 3)
        registry.tally(record.by_kind, "olap", "serve.slo.violations.olap")
        assert (record.polls, record.by_kind) == (3, {"olap": 1})
        assert not active().enabled

    def test_disabled_span_is_one_shared_null_context(self):
        noop = active()
        frame = noop.span("olap.query", {"query": "Q6"})
        assert frame is noop.span("olap.operator.filter")
        with frame as opened:
            assert opened is None
        assert not hasattr(noop, "spans")

    def test_count_and_tally_mirror_into_a_recording_registry(self):
        """While a registry records, one count updates both homes; the
        counter holds the deltas since the registry was enabled."""
        record = _Record()
        registry.count(record, "polls", "pim.controller.polls")
        reg = enable(MetricsRegistry())
        registry.count(record, "polls", "pim.controller.polls", 2)
        registry.tally(record.by_kind, "oltp", "serve.slo.violations.oltp")
        registry.tally(record.by_kind, "oltp", "serve.slo.violations.oltp")
        assert (record.polls, record.by_kind) == (3, {"oltp": 2})
        assert {n: c.value for n, c in reg.counters.items()} == {
            "pim.controller.polls": 2.0,
            "serve.slo.violations.oltp": 2.0,
        }

    def test_instrumented_layers_emit_when_enabled(self):
        """End-to-end: running the engine populates every layer's metrics."""
        from repro import PushTapEngine

        reg = enable(MetricsRegistry())
        engine = PushTapEngine.build(scale=2e-5)
        driver = engine.make_driver(seed=1)
        engine.run_transactions(20, driver)
        engine.query("Q6")
        assert reg.counters["oltp.txn.committed"].value == 20
        assert reg.counters["olap.queries"].value == 1
        assert reg.counters["pim.executor.offloads"].value >= 1
        assert any(n.startswith("oltp.txn.") and n.endswith(".latency_ns")
                   for n in reg.histograms)
        assert any(s.name == "pim.phase.compute" for s in reg.spans)


#: Registry methods that only a recording registry has.
_METRIC_CALLS = ("counter", "gauge", "histogram", "record_span", "advance_to")


def _is_registry(node) -> bool:
    """``tel`` or ``telemetry.active()`` (``oracle.advance_to`` is not one)."""
    if isinstance(node, ast.Name):
        return node.id == "tel"
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "active"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "telemetry"
    )


def _reads_enabled(test) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr == "enabled" and _is_registry(node.value)
        for node in ast.walk(test)
    )


def _metric_calls(node):
    return [
        call.lineno
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in _METRIC_CALLS
        and _is_registry(call.func.value)
    ]


def _unguarded(stmts, guarded=False):
    """Lines of metric calls in ``stmts`` outside an ``if`` reading a
    registry's ``.enabled``. A guard clause (``if not tel.enabled:
    return``) guards the statements after it in its block; a nested
    ``def`` starts unguarded."""
    found = []
    for stmt in stmts:
        if isinstance(stmt, ast.If) and _reads_enabled(stmt.test):
            exits = isinstance(stmt.body[-1], (ast.Return, ast.Continue, ast.Raise))
            found += _unguarded(stmt.body, guarded or not exits)
            found += _unguarded(stmt.orelse, guarded or exits)
            guarded = guarded or exits
            continue
        blocks = [
            getattr(stmt, name) for name in ("body", "orelse", "finalbody")
            if isinstance(getattr(stmt, name, None), list)
        ] + [handler.body for handler in getattr(stmt, "handlers", [])]
        inner = guarded and not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
        for block in blocks:
            found += _unguarded(block, inner)
        if not guarded:
            heads = [
                value for name, value in ast.iter_fields(stmt)
                if name not in ("body", "orelse", "finalbody", "handlers")
            ]
            for head in heads:
                for node in head if isinstance(head, list) else [head]:
                    if isinstance(node, ast.AST):
                        found += _metric_calls(node)
    return found


def _unguarded_sites(root: pathlib.Path):
    sites = []
    for path in sorted(root.rglob("*.py")):
        if "telemetry" in path.relative_to(root).parts:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        sites += [f"{path.relative_to(root)}:{line}" for line in _unguarded(tree.body)]
    return sites


class TestOneSwitch:
    SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

    def test_every_metric_call_is_guarded_by_enabled(self):
        """The disabled registry has no metric getters, so every counter,
        gauge, histogram, span-record and cursor call on a registry sits
        under an ``if`` that reads its ``enabled`` flag."""
        assert _unguarded_sites(self.SRC) == []

    def test_guard_detection(self):
        source = (
            "def f():\n"
            "    tel = telemetry.active()\n"
            "    if tel.enabled:\n"
            "        tel.counter('a').inc()\n"
            "    with tel.span('s'):\n"
            "        if not tel.enabled:\n"
            "            return\n"
            "        tel.histogram('h').observe(1)\n"
            "    oracle.advance_to(3)\n"
            "    if inj.enabled:\n"
            "        tel.gauge('g').set(1)\n"
            "    telemetry.active().counter('b').inc()\n"
            "    if tel.enabled:\n"
            "        def g():\n"
            "            tel.record_span('x', 1.0)\n"
        )
        assert _unguarded(ast.parse(source).body) == [11, 12, 15]


class TestExport:
    def make_registry(self):
        reg = MetricsRegistry()
        reg.counter("oltp.txn.committed").inc(7)
        reg.gauge("workload.oltp_tpmc").set(123.5)
        for v in (1.0, 2.0, 3.0, 10.0):
            reg.histogram("oltp.txn.payment.latency_ns").observe(v)
        with reg.span("olap.query", {"query": "Q6"}):
            reg.record_span("pim.phase.load", 50.0, {"chunk": 0})
            reg.record_span("pim.phase.compute", 25.0, {"chunk": 0})
        reg.record_span("pim.unit.load", 40.0, {"unit": 1}, start=0.0, parent=0)
        return reg

    def test_json_round_trip_is_lossless(self):
        reg = self.make_registry()
        back = export.from_json(export.to_json(reg))
        assert back.counters["oltp.txn.committed"].value == 7
        assert back.gauges["workload.oltp_tpmc"].value == 123.5
        orig = reg.histograms["oltp.txn.payment.latency_ns"]
        copy = back.histograms["oltp.txn.payment.latency_ns"]
        assert copy.samples == orig.samples
        assert copy.p95 == orig.p95
        assert back.spans == reg.spans

    def test_round_trip_keeps_the_span_tree(self):
        from repro.trace import Tracer

        reg = self.make_registry()
        back = export.from_json(export.to_json(reg))
        assert [s.parent for s in back.spans] == [s.parent for s in reg.spans] == [2, 2, None, 0]
        before, after = Tracer(reg.spans), Tracer(back.spans)
        assert [s.self_time for s in after.spans] == [s.self_time for s in before.spans]
        assert [s.self_time for s in after.spans] == [10.0, 25.0, 0.0, 40.0]

    def test_dict_version_stamp(self):
        assert export.to_dict(self.make_registry())["version"] == export.FORMAT_VERSION == 2

    @pytest.mark.parametrize("damage, message", [
        (lambda data: data.update(version=1), "dump version 1 is not 2"),
        (lambda data: data["spans"][1].pop("parent"),
         "span 1 ('pim.phase.compute') has no valid parent"),
    ], ids=["version-1", "parentless-span"])
    def test_treeless_dump_is_refused(self, damage, message, tmp_path, capsys):
        """A version-1 dump or a span without its parent does not reload
        as a forest of roots: the load fails naming it, and report-metrics
        exits 2."""
        import json

        from repro.experiments.__main__ import main

        data = export.to_dict(self.make_registry())
        damage(data)
        with pytest.raises(ValueError, match=re.escape(message)):
            export.from_dict(data)
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(data))
        assert main(["report-metrics", str(path)]) == 2
        assert f"is not a telemetry JSON dump: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("parents, message", [
        ({0: 0}, "span 0 ('pim.phase.load') is its own ancestor"),
        ({0: 1, 1: 0}, "span 0 ('pim.phase.load') is its own ancestor"),
        ({0: 3, 3: 2, 2: 0}, "span 0 ('pim.phase.load') is its own ancestor"),
    ], ids=["self-parent", "two-cycle", "cycle-through-the-wrapper"])
    def test_cyclic_span_parents_are_refused(self, parents, message, tmp_path, capsys):
        """A span that is its own ancestor would reload with every self
        time and the critical path at 0: the load fails naming it, and
        report-metrics exits 2."""
        import json

        from repro.experiments.__main__ import main

        data = export.to_dict(self.make_registry())
        for index, parent in parents.items():
            data["spans"][index]["parent"] = parent
        with pytest.raises(ValueError, match=re.escape(message)):
            export.from_dict(data)
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(data))
        assert main(["report-metrics", str(path)]) == 2
        assert f"is not a telemetry JSON dump: {message}" in capsys.readouterr().err

    def test_recorded_dump_with_deep_frames_reloads(self):
        """A closed frame is recorded after its children, so parents point
        to higher indexes as often as lower ones; only a cycle is refused."""
        reg = MetricsRegistry()
        with reg.span("olap.query"):
            with reg.span("olap.operator.filter"):
                reg.record_span("pim.phase.load", 5.0)
            reg.record_span("pim.unit.load", 2.0, start=0.0, parent=0)
        back = export.from_dict(export.to_dict(reg))
        assert [s.parent for s in back.spans] == [1, 3, 0, None]

    def test_sample_free_histogram_is_refused(self, tmp_path, capsys):
        """A histogram dumped without its samples does not reload as an
        empty one: the load fails and names it, and report-metrics exits 2."""
        import json

        from repro.experiments.__main__ import main

        data = export.to_dict(self.make_registry())
        del data["histograms"]["oltp.txn.payment.latency_ns"]["samples"]
        with pytest.raises(ValueError, match="'oltp.txn.payment.latency_ns' has no samples"):
            export.from_dict(data)
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(data))
        assert main(["report-metrics", str(path)]) == 2
        err = capsys.readouterr().err
        assert "is not a telemetry JSON dump: histogram 'oltp.txn.payment.latency_ns'" in err

    def test_csv_shape(self):
        lines = export.to_csv(self.make_registry()).strip().splitlines()
        assert lines[0] == "kind,name,field,value"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"counter", "gauge", "histogram", "span"}

    def test_render_report(self):
        text = export.render_report(self.make_registry())
        for fragment in ("counters:", "gauges:", "histograms:",
                         "spans (aggregated):", "oltp.txn.committed"):
            assert fragment in text
        assert export.render_report(MetricsRegistry()) == "(no telemetry recorded)"

    def test_render_report_span_self_time(self):
        """The span table distinguishes inclusive from exclusive time:
        a wrapper covering its children reports (near-)zero self time."""
        reg = MetricsRegistry()
        with reg.span("olap.query"):
            reg.record_span("pim.phase.load", 50.0)
            reg.record_span("pim.phase.compute", 30.0)
        text = export.render_report(reg)
        assert "self time" in text
        query_row = next(
            line for line in text.splitlines() if "olap.query" in line
        )
        assert query_row.split()[-2:] == ["0.0", "ns"]
