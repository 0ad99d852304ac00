"""Baselines, both kinds.

The analytic comparison models (ideal, multi-instance, PUSHtap analytic,
original PIM), and the pinned simulated baselines: every row of
``repro.experiments.baselines.BASELINES`` against its ``baselines/<id>.json``.
"""

import json
import pathlib

import pytest

import repro.olap.engine
from repro.baselines.ideal import IdealOLAPModel
from repro.baselines.multi_instance import MultiInstanceModel
from repro.baselines.pushtap_model import PushTapQueryModel
from repro.core.config import dimm_system, hbm_system
from repro.errors import QueryError
from repro.experiments import baselines as pinned
from repro.experiments import fig9
from repro.olap.cost import column_scan_cost
from repro.units import KIB

COLUMNS = [(1_000_000, 4), (1_000_000, 8)]


def mi_query_time(model, columns, num_txns):
    """Multi-instance query time after ``num_txns`` transactions:
    rebuild, then scan."""
    return model.rebuild_cost(num_txns).total + model.scan_time(columns)


def pushtap_query_time(model, columns, num_txns):
    """PUSHtap query time after ``num_txns`` transactions: snapshot
    consistency, then a scan inflated by the pending delta share."""
    base_rows = max(sum(rows for rows, _ in columns), 1)
    delta_fraction = model.pending_delta_fraction(num_txns, base_rows)
    return model.query_consistency(num_txns) + model.scan_time(columns, delta_fraction)


class TestIdeal:
    def test_query_time_is_sum_of_scans(self):
        model = IdealOLAPModel(dimm_system())
        total = model.query_time(COLUMNS)
        parts = sum(model.column_time(r, w).total_time for r, w in COLUMNS)
        assert total == pytest.approx(parts)


class TestMultiInstance:
    def test_rebuild_grows_linearly(self):
        model = MultiInstanceModel(dimm_system())
        small = model.rebuild_cost(10_000)
        large = model.rebuild_cost(1_000_000)
        variable_small = small.total - small.fixed
        variable_large = large.total - large.fixed
        assert variable_large == pytest.approx(100 * variable_small, rel=0.01)

    def test_accelerator_reduces_rebuild(self):
        base = MultiInstanceModel(dimm_system())
        accel = MultiInstanceModel(dimm_system(), accelerator_speedup=6.0)
        assert accel.rebuild_cost(10**6).total < base.rebuild_cost(10**6).total

    def test_query_time_includes_rebuild(self):
        """Fig. 9b's MI query pays the rebuild on top of its scan."""
        points = {
            (p.system, p.num_txns): p for p in fig9.olap_comparison(txn_counts=(10**6,))
        }
        mi = MultiInstanceModel(dimm_system(), writes_per_txn=fig9._WRITES_PER_TXN)
        point = points["MI", 10**6]
        assert point.consistency_time == mi.rebuild_cost(10**6).total > 0
        assert point.scan_time == mi.scan_time(fig9._mean_query_columns(1.0))
        assert point.total_time == pytest.approx(
            mi.rebuild_cost(10**6).total + mi.scan_time(fig9._mean_query_columns(1.0))
        )

    def test_negative_txns_rejected(self):
        with pytest.raises(QueryError):
            MultiInstanceModel(dimm_system()).rebuild_cost(-1)


class TestPushTapModel:
    def test_snapshot_scales_with_pending(self):
        model = PushTapQueryModel(dimm_system())
        assert model.snapshot_time(2_000) == pytest.approx(2 * model.snapshot_time(1_000))

    def test_query_consistency_bounded_by_defrag_window(self):
        """Beyond one defrag period, only the lazy-metadata term grows."""
        model = PushTapQueryModel(dimm_system())
        at_period = model.query_consistency(model.defrag_period)
        at_10x = model.query_consistency(10 * model.defrag_period)
        lazy_extra = (
            9 * model.defrag_period * model.lazy_metadata_bytes_per_txn
        ) / dimm_system().total_cpu_bandwidth
        assert at_10x == pytest.approx(at_period + lazy_extra)

    def test_fig9_point_scans_the_pending_delta(self):
        """Fig. 9b's PUSHtap point: snapshot consistency, then a scan
        inflated by the delta rows not yet defragmented."""
        model = PushTapQueryModel(dimm_system(), writes_per_txn=fig9._WRITES_PER_TXN)
        columns = fig9._mean_query_columns(1.0)
        base_rows = sum(rows for rows, _ in columns)
        for n in (10_000, 10**6):
            (point,) = [
                p for p in fig9.olap_comparison(txn_counts=(n,)) if p.system == "PUSHtap"
            ]
            delta = model.pending_delta_fraction(n, base_rows)
            assert delta > 0
            assert point.consistency_time == model.query_consistency(n)
            assert point.scan_time == model.scan_time(columns, delta) > model.scan_time(columns)

    def test_fragmentation_inflates_scan(self):
        model = PushTapQueryModel(dimm_system())
        assert model.scan_time(COLUMNS, delta_fraction=0.5) > model.scan_time(COLUMNS)

    def test_efficiency_inflates_scan(self):
        fast = PushTapQueryModel(dimm_system(), pim_efficiency=1.0)
        slow = PushTapQueryModel(dimm_system(), pim_efficiency=0.5)
        assert slow.scan_time(COLUMNS) > fast.scan_time(COLUMNS)

    def test_defrag_strategies(self):
        model = PushTapQueryModel(dimm_system())
        n = 10_000
        hybrid = model.defrag_time(n, "hybrid")
        cpu = model.defrag_time(n, "cpu")
        pim = model.defrag_time(n, "pim")
        assert hybrid <= cpu + 1e-6
        assert hybrid <= pim + 1e-6

    def test_hbm_cpu_strategy_always(self):
        """With CPU bandwidth above PIM bandwidth (HBM), Eq. 3 has no
        crossover and the hybrid equals the CPU strategy."""
        model = PushTapQueryModel(hbm_system())
        assert model.defrag_time(1_000, "hybrid") == pytest.approx(
            model.defrag_time(1_000, "cpu")
        )

    def test_validation(self):
        model = PushTapQueryModel(dimm_system())
        with pytest.raises(QueryError):
            model.snapshot_time(-1)
        with pytest.raises(QueryError):
            model.scan_time(COLUMNS, delta_fraction=-0.1)


class TestPUSHtapBeatsMI:
    """The paper's central comparison holds across scales."""

    @pytest.mark.parametrize("num_txns", [100_000, 1_000_000, 8_000_000])
    def test_pushtap_query_cheaper_than_mi(self, num_txns):
        config = dimm_system()
        mi = MultiInstanceModel(config)
        pushtap = PushTapQueryModel(config)
        assert pushtap_query_time(pushtap, COLUMNS, num_txns) < mi_query_time(
            mi, COLUMNS, num_txns
        )

    def test_gap_widens_with_txns(self):
        config = dimm_system()
        mi = MultiInstanceModel(config)
        pushtap = PushTapQueryModel(config)
        gap_small = mi_query_time(mi, COLUMNS, 10**5) / pushtap_query_time(pushtap, COLUMNS, 10**5)
        gap_large = mi_query_time(mi, COLUMNS, 8 * 10**6) / pushtap_query_time(
            pushtap, COLUMNS, 8 * 10**6
        )
        assert gap_large > gap_small


class TestWramSweep:
    def test_sweep_shapes(self):
        def gain(controller):
            small, large = (
                column_scan_cost(
                    dimm_system(), 10**7, 8, controller_kind=controller, wram_bytes=wram
                ).total_time
                for wram in (16 * KIB, 256 * KIB)
            )
            return small / large

        # Original improves sharply with WRAM; PUSHtap barely moves (§7.5).
        assert gain("original") > 3.0
        assert gain("pushtap") < 2.0


# ---------------------------------------------------------------------------
# Pinned simulated baselines
# ---------------------------------------------------------------------------
BASELINE_DIR = pathlib.Path(__file__).resolve().parent.parent / "baselines"


def committed(baseline_id):
    return json.loads((BASELINE_DIR / f"{baseline_id}.json").read_text())


class TestPinnedBaselines:
    # ``figures`` takes ~11 s on every substrate; tests/test_figures.py
    # covers it on ddr5 and scripts/check_baselines.py on all of them.
    # Each ``pins`` digest already has its own test (PINS[name] against
    # pins.json) beside the code it pins, so running the row here would
    # run every scenario twice.
    @pytest.mark.parametrize(
        "baseline_id", [i for i in pinned.BASELINES if i not in ("figures", "pins")]
    )
    def test_row_regenerates_its_file(self, baseline_id):
        fresh = pinned.regenerate(baseline_id)
        assert pinned.diff(committed(baseline_id), fresh, baseline_id) == []

    def test_every_row_has_a_file_and_every_file_a_row(self):
        files = {path.name for path in BASELINE_DIR.iterdir()}
        assert files == {f"{i}.json" for i in pinned.BASELINES}

    def test_diff_is_exact_and_names_paths(self):
        row = {"x": [1.0, {"y": 2}], "z": 0}
        assert pinned.diff(row, json.loads(json.dumps(row)), "row") == []
        moved = {"x": [1.0000000000000002, {"y": 2, "w": 3}], "z": 0.0}
        assert pinned.diff(row, moved, "row") == ["row.x[0]", "row.x[1].w", "row.z"]
        assert pinned.diff([1], [1, 2], "row") == ["row[1]"]

    def test_mutated_cost_constant_names_row_and_path(self, monkeypatch):
        monkeypatch.setattr(repro.olap.engine, "_CPU_MERGE_NS_PER_ELEMENT", 0.75)
        drifts = pinned.diff(committed("profile"), pinned.regenerate("profile"), "profile")
        assert "profile.ch.simulated.time_ns" in drifts
        assert all(drift.startswith("profile.") for drift in drifts)

    def test_cluster_scaling_near_linear(self):
        for cell in committed("cluster_scaling")["scaling"]:
            assert cell["tpmc_speedup"] >= 0.9 * cell["shards"], cell["shards"]

    def test_roofline_trace_checks_pass(self):
        checks = committed("roofline")["trace_check"]
        assert set(checks) == {"ddr5", "hbm3", "lpddr5x-pim"}
        assert all(check["ok"] for check in checks.values())

    def test_fault_sweeps_survive_and_inject(self):
        for name, report in committed("fault_sweeps").items():
            cells = report["cells"]
            assert report["survived"] == report["total"] == len(cells), name
            for cell in cells:
                assert cell["survived"] and cell["error"] is None, (name, cell["error"])
                assert cell["violations"] == [], (name, cell["violations"])
                # Not vacuous: every non-crash cell injected a fault.
                if report["workload"] != "crash":
                    assert sum(cell["injected"].values()), (name, "vacuous cell")

    def test_crash_sweep_fires_replays_and_folds(self):
        cells = committed("fault_sweeps")["crash"]["cells"]
        assert all(cell["stats"]["crash_fired"] for cell in cells), "no crash fired"
        # Every cell replays WAL records, so the replay accounting runs.
        assert all(cell["stats"]["wal_records_replayed"] >= 1 for cell in cells)
        # Every recovered engine is audited (indexes included) at least once.
        assert all(cell["checks"] >= 1 for cell in cells)
        # Both redo paths run: per crash hook row, some cell folds a segment.
        folded = {}
        for cell in cells:
            row = json.dumps(cell["rates"], sort_keys=True)
            folded[row] = max(folded.get(row, 0), cell["stats"]["segments_applied"])
        assert all(n >= 1 for n in folded.values()), folded

    def test_serve_ablation_within_slos_and_ivm_no_worse(self):
        report = committed("serve_ablation")
        ivm = report["ivm"]
        for cell in report["cells"] + ivm["cells"]:
            assert cell["slo_errors"] == []
        for delta in ivm["deltas"]:
            assert delta["olap_qphh_delta"] >= 0, delta
            assert delta["max_staleness_delta"] <= 0, delta
        assert any(cell["ivm_flushes"] for cell in ivm["cells"])
