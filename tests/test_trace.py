"""Trace subsystem: nesting, tracks, exporters, analysis, profiler."""

import json

import pytest

from repro.errors import ConfigError
from repro.telemetry import active, disable, enable
from repro.telemetry.registry import MetricsRegistry
from repro.trace import (
    Tracer,
    analyze,
    default_track,
    folded_stacks,
    run_profile,
    to_chrome_json,
    to_chrome_trace,
    to_folded,
)
from repro.trace.analysis import critical_path, name_stats, track_stats


@pytest.fixture(autouse=True)
def _restore_noop():
    """Every test leaves the process-global registry disabled."""
    yield
    disable()


def make_registry():
    """A small synthetic timeline exercising every structural case.

    ::

        cpu/oltp      |oltp.txn--|                          |oltp.txn|
        cpu/olap                 |olap.query----------------|
        pim/phases               |pim.load--|pim.compute----|
        pim/dev.bank             |unit|       |unit--| |unit|

    The ``olap.query`` frame is recorded *after* its children; the
    per-unit spans share their phase's start, overlap each other
    (parallel lanes) and name their phase as parent.
    """
    reg = MetricsRegistry()
    reg.record_span("oltp.txn", 100.0, {"type": "payment"})
    with reg.span("olap.query", {"query": "Q6"}):
        load = reg.record_span("pim.phase.load", 40.0, {"chunk": 0})
        parent = len(reg.spans) - 1
        reg.record_span(
            "pim.unit.load", 30.0,
            {"chunk": 0, "unit": 0, "device": 0, "bank": 0}, start=load.start, parent=parent,
        )
        reg.record_span(
            "pim.unit.load", 40.0,
            {"chunk": 0, "unit": 1, "device": 1, "bank": 0}, start=load.start, parent=parent,
        )
        comp = reg.record_span("pim.phase.compute", 60.0, {"chunk": 0})
        parent = len(reg.spans) - 1
        reg.record_span(
            "pim.unit.compute", 60.0,
            {"chunk": 0, "unit": 0, "device": 0, "bank": 0}, start=comp.start, parent=parent,
        )
        reg.record_span(
            "pim.unit.compute", 45.0,
            {"chunk": 0, "unit": 1, "device": 1, "bank": 0}, start=comp.start, parent=parent,
        )
    reg.record_span("oltp.txn", 50.0, {"type": "neworder"})
    return reg


class TestDefaultTrack:
    def test_unit_spans_keyed_by_device_bank(self):
        track = default_track("pim.unit.compute", {"device": 3, "bank": 1})
        assert track == "pim/dev03.bank01"

    def test_unit_spans_fall_back_to_unit_then_pool(self):
        assert default_track("pim.unit.load", {"unit": 7}) == "pim/unit007"
        assert default_track("pim.unit.load", {}) == "pim/units"

    def test_layer_mapping(self):
        assert default_track("pim.control", {}) == "controller/launch"
        assert default_track("faults.check", {}) == "controller/launch"
        assert default_track("pim.phase.load", {}) == "pim/phases"
        assert default_track("oltp.txn", {}) == "cpu/oltp"
        assert default_track("olap.query", {}) == "cpu/olap"
        assert default_track("defrag.run", {}) == "defrag/run"
        assert default_track("workload.interval", {}) == "cpu/workload"
        assert default_track("something.else", {}) == "misc/other"


class TestTracerNesting:
    def test_wrapper_recorded_after_children_becomes_parent(self):
        tracer = Tracer(make_registry().spans)
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s.name, []).append(s)
        query = by_name["olap.query"][0]
        load = by_name["pim.phase.load"][0]
        comp = by_name["pim.phase.compute"][0]
        assert load.parent is query
        assert comp.parent is query
        assert query.parent is None
        assert [c.name for c in query.children] == [
            "pim.phase.load", "pim.phase.compute",
        ]
        assert load.stack == ("olap.query", "pim.phase.load")

    def test_parallel_unit_spans_never_adopt_children(self):
        """Per-unit lanes share a start; the longest must not swallow
        its siblings or the next phase's spans."""
        tracer = Tracer(make_registry().spans)
        units = [s for s in tracer.spans if s.name.startswith("pim.unit.")]
        assert len(units) == 4
        for unit in units:
            assert unit.children == []
            assert unit.parent is not None
            assert unit.parent.name.startswith("pim.phase.")
        loads = [u for u in units if u.name == "pim.unit.load"]
        assert all(u.parent.name == "pim.phase.load" for u in loads)

    def test_serial_spans_stay_roots(self):
        tracer = Tracer(make_registry().spans)
        roots = [s.name for s in tracer.spans if s.parent is None]
        assert roots == ["oltp.txn", "olap.query", "oltp.txn"]

    def test_self_time_subtracts_union_of_children(self):
        tracer = Tracer(make_registry().spans)
        load = next(s for s in tracer.spans if s.name == "pim.phase.load")
        # Children [0,30) and [0,40) overlap: union is 40, not 70.
        assert load.self_time == pytest.approx(0.0)
        comp = next(s for s in tracer.spans if s.name == "pim.phase.compute")
        assert comp.self_time == pytest.approx(0.0)
        query = next(s for s in tracer.spans if s.name == "olap.query")
        # Phases cover the query window completely.
        assert query.self_time == pytest.approx(0.0)
        txn = tracer.spans[0]
        assert txn.self_time == pytest.approx(txn.duration)

    def test_empty_trace(self):
        tracer = Tracer([])
        assert tracer.spans == []
        assert tracer.end_time() == 0.0
        assert analyze(tracer).critical_path_time == 0.0


class TestChromeExport:
    def test_event_schema(self):
        """Golden schema check: the fields Perfetto requires are present
        and correctly derived on every event."""
        tracer = Tracer(make_registry().spans)
        trace = to_chrome_trace(tracer)
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["ph"] for e in events} == {"X", "M"}
        assert len(complete) == len(tracer.spans)
        for event in complete:
            assert set(event) == {
                "name", "cat", "ph", "ts", "dur", "pid", "tid", "args",
            }
            assert isinstance(event["pid"], int) and event["pid"] >= 1
            assert isinstance(event["tid"], int) and event["tid"] >= 1
            # ts/dur are microseconds; originals ride along in args.
            assert event["ts"] == pytest.approx(event["args"]["start_ns"] / 1000.0)
            assert event["dur"] == pytest.approx(
                event["args"]["duration_ns"] / 1000.0
            )
        # Every pid has a process_name and every tid a thread_name.
        named_pids = {e["pid"] for e in meta if e["name"] == "process_name"}
        named_tids = {
            (e["pid"], e["tid"]) for e in meta if e["name"] == "thread_name"
        }
        assert {e["pid"] for e in complete} <= named_pids
        assert {(e["pid"], e["tid"]) for e in complete} <= named_tids

    def test_track_to_pid_tid_split(self):
        tracer = Tracer(make_registry().spans)
        trace = to_chrome_trace(tracer)
        names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # Parallel unit lanes land on distinct tids of the pim process.
        assert "dev00.bank00" in names.values()
        assert "dev01.bank00" in names.values()

    def test_json_round_trip(self):
        tracer = Tracer(make_registry().spans)
        parsed = json.loads(to_chrome_json(tracer))
        assert parsed == json.loads(json.dumps(to_chrome_trace(tracer)))

    def test_span_attrs_survive_in_args(self):
        tracer = Tracer(make_registry().spans)
        events = to_chrome_trace(tracer)["traceEvents"]
        q = next(e for e in events if e.get("name") == "olap.query")
        assert q["args"]["query"] == "Q6"


class TestFlame:
    def test_folded_weights_are_self_time(self):
        tracer = Tracer(make_registry().spans)
        stacks = folded_stacks(tracer)
        # Wrappers with zero self time are absent; leaves carry weight.
        assert ("olap.query",) not in stacks
        assert stacks[("oltp.txn",)] == pytest.approx(150.0)
        assert (
            stacks[("olap.query", "pim.phase.load", "pim.unit.load")]
            == pytest.approx(70.0)
        )

    def test_total_weight_equals_total_self_time(self):
        tracer = Tracer(make_registry().spans)
        assert sum(folded_stacks(tracer).values()) == pytest.approx(
            sum(s.self_time for s in tracer.spans)
        )

    def test_rendered_lines_shape(self):
        text = to_folded(Tracer(make_registry().spans))
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            path, weight = line.rsplit(" ", 1)
            assert path
            assert int(weight) > 0

    def test_empty_trace_renders_empty(self):
        assert to_folded(Tracer([])) == ""


class TestAnalysis:
    def test_track_totals_reconcile_with_raw_span_log(self):
        reg = make_registry()
        tracer = Tracer(reg.spans)
        stats = track_stats(tracer)
        assert sum(t.total_time for t in stats.values()) == pytest.approx(
            sum(s.duration for s in reg.spans)
        )
        assert sum(t.count for t in stats.values()) == len(reg.spans)

    def test_occupancy_uses_window_union(self):
        tracer = Tracer(make_registry().spans)
        stats = track_stats(tracer)
        # oltp.txn spans [0,100) and [200,250): busy 150 of 250.
        oltp = stats["cpu/oltp"]
        assert oltp.busy_time == pytest.approx(150.0)
        assert oltp.occupancy == pytest.approx(150.0 / 250.0)
        for track in stats.values():
            assert 0.0 <= track.occupancy <= 1.0 + 1e-9
            assert track.busy_time <= track.total_time + 1e-9

    def test_name_stats_self_vs_total(self):
        stats = name_stats(Tracer(make_registry().spans))
        assert stats["oltp.txn"].count == 2
        assert stats["oltp.txn"].total_time == pytest.approx(150.0)
        assert stats["olap.query"].total_time == pytest.approx(100.0)
        assert stats["olap.query"].self_time == pytest.approx(0.0)

    def test_critical_path_is_non_overlapping_and_maximal(self):
        tracer = Tracer(make_registry().spans)
        path, weight = critical_path(tracer)
        assert weight == pytest.approx(sum(s.duration for s in path))
        for a, b in zip(path, path[1:]):
            assert b.start >= a.end - 1e-6
        # The serial timeline is fully covered by leaves here, so the
        # critical path accounts for the whole horizon.
        assert weight == pytest.approx(tracer.end_time())

    def test_report_render_sections(self):
        report = analyze(Tracer(make_registry().spans))
        text = report.render(top=5)
        for fragment in ("bottlenecks", "track occupancy:", "critical path:",
                         "cpu/oltp", "oltp.txn"):
            assert fragment in text
        assert report.ranked == sorted(
            report.names.values(), key=lambda s: -s.self_time
        )


class TestEndToEndTrace:
    def test_engine_run_produces_coherent_trace(self):
        """A real engine run: per-track totals reconcile with the raw
        span log and the Chrome export stays schema-valid."""
        from repro import PushTapEngine

        reg = enable(MetricsRegistry())
        reg.roofline = True
        engine = PushTapEngine.build(scale=2e-5)
        driver = engine.make_driver(seed=3)
        engine.run_transactions(10, driver)
        engine.query("Q6")
        disable()

        tracer = Tracer(reg.spans)
        stats = track_stats(tracer)
        assert sum(t.total_time for t in stats.values()) == pytest.approx(
            sum(s.duration for s in reg.spans)
        )
        assert "cpu/oltp" in stats and "cpu/olap" in stats
        assert any(t.startswith("pim/dev") for t in stats)
        # Per-unit lanes never parent anything.
        for span in tracer.spans:
            if span.name.startswith("pim.unit."):
                assert span.children == []
        events = to_chrome_trace(tracer)["traceEvents"]
        for event in events:
            if event["ph"] == "X":
                assert {"name", "ts", "dur", "pid", "tid"} <= set(event)
        path, weight = critical_path(tracer)
        assert 0.0 < weight <= tracer.end_time() + 1e-6


class TestRunProfile:
    def test_mixed_smoke(self):
        result = run_profile(
            workload="mixed", intervals=1, txns_per_query=5, seed=5,
        )
        assert not active().enabled  # profiler restores the no-op
        sections = result.sections
        # Simulated sections only: host time is the e2e benchmark's.
        assert set(sections) == {
            "simulated", "counters", "spans", "tracks", "critical_path_ns"
        }
        sim = sections["simulated"]
        assert sim["transactions"] == 5
        assert sim["queries"] == 1
        assert sim["time_ns"] > 0
        # Span/track sections mirror the analysis over the tracer.
        assert sections["spans"] == {
            n: s.as_dict() for n, s in sorted(result.report.names.items())
        }
        tracks = sections["tracks"]
        assert sum(t["total_ns"] for t in tracks.values()) == pytest.approx(
            sum(s.duration for s in result.registry.spans)
        )
        assert sections["critical_path_ns"] > 0
        json.dumps(sections)  # the sections must be JSON-serializable

    def test_ch_and_tpcc_workloads(self):
        ch = run_profile(workload="ch", intervals=2, queries=("Q6",), seed=5)
        assert ch.sections["simulated"]["queries"] == 2
        assert ch.sections["simulated"]["transactions"] == 0
        tpcc = run_profile(workload="tpcc", intervals=1, txns_per_query=4, seed=5)
        assert tpcc.sections["simulated"]["transactions"] == 4
        assert tpcc.sections["simulated"]["queries"] == 0

    def test_detail_spans_gate(self):
        """Per-unit spans need the registry's ``roofline`` flag, which
        the profiler sets; they do not change the simulated outcome."""
        from repro import PushTapEngine

        engine = PushTapEngine.build(scale=2e-5, seed=5)
        coarse = enable(MetricsRegistry())
        try:
            engine.query("Q6")
        finally:
            disable()
        assert not any(s.name.startswith("pim.unit.") for s in coarse.spans)
        fine = run_profile(
            workload="ch", intervals=1, queries=("Q6",), seed=5,
        )
        assert any(s.name.startswith("pim.unit.") for s in fine.registry.spans)
        assert fine.sections["simulated"]["time_ns"] == pytest.approx(
            engine.stats.olap_time + engine.stats.defrag_time
        )

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigError):
            run_profile(workload="olap-only")
        with pytest.raises(ConfigError):
            run_profile(model="hybrid")
        with pytest.raises(ConfigError):
            run_profile(intervals=0)


class TestRecordedTree:
    """The span tree the instrumented layers record, on the pinned runs."""

    @pytest.mark.parametrize("workload", ["ch", "mixed", "tpcc"])
    def test_critical_path_is_the_serial_timeline(self, workload):
        """Every span of these runs lies on one serial clock, so the leaf
        chain covers all of it: a zero-duration span makes no leaf of
        its neighbour a parent."""
        sections = run_profile(
            workload, intervals=6, txns_per_query=30, scale=2e-5, seed=11,
            defrag_period=200,
        ).sections
        assert sections["critical_path_ns"] == pytest.approx(
            sections["simulated"]["time_ns"], rel=1e-12, abs=0.0
        )
        if workload == "ch":
            assert sections["critical_path_ns"] == sections["simulated"]["time_ns"]

    def test_serve_run_nests_queries_not_neighbours(self):
        """The ``serve_state("open")`` run: snapshots and CPU gaps sit
        under their query, and no transaction, control span or request
        parents anything."""
        from repro import PushTapEngine
        from repro.serve import ServeConfig, ServeLoop

        engine = PushTapEngine.build(scale=2e-5, seed=5)
        reg = enable(MetricsRegistry())
        ServeLoop(engine, ServeConfig(
            tenants=2, requests_per_tenant=16, policy="batched", seed=9,
            arrival="open", olap_fraction=0.3,
        )).run()
        disable()
        tracer = Tracer(reg.spans)
        nested = [s for s in tracer.spans if s.name in ("olap.snapshot", "olap.cpu")]
        assert nested and all(s.parent.name == "olap.query" for s in nested)
        parents = {s.parent.name for s in tracer.spans if s.parent is not None}
        assert not parents & {"pim.control", "oltp.txn", "serve.request"}


class TestProfileCLI:
    def test_profile_writes_artifacts(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.__main__ import main

        # Run from a different directory than --out-dir: both artifacts
        # must land in --out-dir, and nothing may leak into the working
        # directory.
        cwd = tmp_path / "cwd"
        out_dir = tmp_path / "out"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        rc = main([
            "profile", "--workload", "mixed", "--intervals", "1",
            "--txns-per-query", "5", "--seed", "5",
            "--out-dir", str(out_dir),
        ])
        assert rc == 0
        trace = json.loads((out_dir / "trace.json").read_text())
        assert trace["traceEvents"]
        assert (out_dir / "flame.folded").read_text().strip()
        assert sorted(p.name for p in out_dir.iterdir()) == ["flame.folded", "trace.json"]
        assert list(cwd.iterdir()) == []
        out = capsys.readouterr().out
        assert "bottlenecks" in out
        assert "trace.json" in out
