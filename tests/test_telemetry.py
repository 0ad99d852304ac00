"""Telemetry subsystem: metrics, registry, no-op mode, exporters."""

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
from repro.telemetry import export
from repro.telemetry.metrics import NULL_COUNTER, NULL_HISTOGRAM, SpanEvent


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
        noop = active()
        assert noop.counter("a") is NULL_COUNTER
        noop.counter("a").inc(100)
        assert noop.counter("a").value == 0.0
        h = noop.histogram("h")
        assert h is NULL_HISTOGRAM
        h.observe(5.0)
        assert h.count == 0
        assert noop.record_span("s", 1.0) is None

    def test_disabled_span_is_one_shared_null_context(self):
        noop = active()
        frame = noop.span("olap.query", {"query": "Q6"})
        assert frame is noop.span("olap.operator.filter")
        with frame:
            assert noop.record_span("s", 1.0) is None
        assert noop.spans == []

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
