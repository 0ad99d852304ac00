"""Experiment modules: every figure's data series and its paper shape."""

import pytest

from repro.experiments import fig8, fig9, fig10, fig11, fig12
from repro.units import KIB


class TestFig8:
    def test_th_sweep_tradeoff(self):
        """Fig. 8a: CPU bandwidth falls and PIM bandwidth rises with th."""
        points = fig8.th_sweep(ths=(0.0, 0.6, 1.0))
        assert points[0].cpu_bandwidth >= points[-1].cpu_bandwidth
        assert points[0].pim_bandwidth <= points[-1].pim_bandwidth
        assert points[-1].pim_bandwidth == pytest.approx(1.0)

    def test_default_th_balances(self):
        """At th = 0.6 PIM bandwidth is high while CPU stays workable
        (paper: 97.4 % / 59.8 %)."""
        point = [p for p in fig8.th_sweep() if p.th == 0.6][0]
        assert point.pim_bandwidth > 0.9
        assert point.cpu_bandwidth > 0.35

    def test_storage_breakdown(self):
        sb = fig8.storage_breakdown_point(th=0.6)
        assert sb.bitmap_fraction < 0.05  # paper: 2.3 %
        assert sb.total_bytes > 0

    def test_subset_sweep_monotone(self):
        """Fig. 8c/d: more key columns -> lower achievable bandwidth."""
        points = fig8.subset_sweep(subset_ends=(1, 3, 22))
        cpus = [p.max_cpu_with_pim_constraint for p in points]
        assert cpus[0] >= cpus[-1]
        assert points[0].num_key_columns == 4
        assert points[-1].subset == "ALL"
        assert points[-1].num_key_columns == 92

    def test_htapbench_generality(self):
        """§7.2: high PIM utilization on a second schema at th = 0.55
        (paper: 57 % CPU / 98 % PIM)."""
        point = fig8.htapbench_point(0.55)
        assert point["pim_bandwidth"] > 0.85
        assert point["cpu_bandwidth"] > 0.35


class TestFig9:
    def test_olap_comparison_shapes(self):
        points = fig9.olap_comparison(txn_counts=(10_000, 1_000_000))
        by_key = {(p.system, p.num_txns): p for p in points}
        ideal = by_key[("ideal", 1_000_000)]
        mi = by_key[("MI", 1_000_000)]
        pushtap = by_key[("PUSHtap", 1_000_000)]
        # Paper: MI ~123 % overhead at 1M txns; PUSHtap a few percent.
        assert mi.overhead_vs(ideal.scan_time) > 0.5
        assert pushtap.overhead_vs(ideal.scan_time) < 0.10
        # MI's rebuild grows with txns, PUSHtap's consistency stays small.
        assert (
            by_key[("MI", 1_000_000)].consistency_time
            > by_key[("MI", 10_000)].consistency_time * 10
        )

    def test_mi_hbm_accelerator_helps(self):
        points = fig9.olap_comparison(txn_counts=(8_000_000,))
        by_sys = {p.system: p for p in points}
        assert by_sys["MI (HBM)"].consistency_time < by_sys["MI"].consistency_time


class TestFig10:
    def test_headline_ratios(self):
        """Paper: 3.4× peak OLTP; OLAP ratio at MI's peak ~4.4×."""
        ratios = fig10.peak_ratios()
        assert 2.5 < ratios["peak_oltp_ratio"] < 4.5
        assert ratios["olap_ratio_at_mi_peak"] > 2.0
        assert ratios["pushtap_knee_tpmc"] < ratios["pushtap_peak_tpmc"]

    def test_frontier_shapes(self):
        pushtap = fig10.frontier("pushtap", num_points=10)
        mi = fig10.frontier("mi", num_points=10)
        # PUSHtap extends further right.
        assert pushtap[-1].oltp_tpmc > 2 * mi[-1].oltp_tpmc
        # Flat plateau at low OLTP rates.
        assert pushtap[0].olap_qphh == pytest.approx(pushtap[2].olap_qphh)
        # OLAP never increases with OLTP load.
        olap = [p.olap_qphh for p in pushtap]
        assert all(a >= b - 1e-9 for a, b in zip(olap, olap[1:]))

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            fig10.frontier("duckdb")


class TestFig11:
    def test_fragmentation_crosses_defrag(self):
        """Fig. 11b: fragmentation overtakes defragmentation within the
        paper's 10k-transaction neighbourhood."""
        points = fig11.fragmentation_vs_defrag(
            txn_counts=(1_000, 10_000, 100_000)
        )
        assert points[0].ratio < 1.0
        assert points[-1].ratio > 1.0

    def test_fragmentation_grows_linearly(self):
        points = fig11.fragmentation_vs_defrag(txn_counts=(10_000, 100_000))
        growth = points[1].fragmentation_overhead / points[0].fragmentation_overhead
        assert 5 < growth < 20

    def test_transaction_breakdown_proportions(self):
        """Fig. 11c: indexing/alloc/compute dominate; chain is tiny."""
        breakdown = fig11.transaction_breakdown(num_txns=60)
        assert breakdown["index"] + breakdown["alloc"] + breakdown["compute"] > 0.5
        assert breakdown["chain"] < 0.02
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_defrag_breakdown_sums_to_one(self):
        breakdown = fig11.defrag_breakdown(num_txns=80)
        assert sum(breakdown.values()) == pytest.approx(1.0)


class TestFig12:
    def test_hybrid_defrag_is_best(self):
        """Fig. 12a: hybrid never loses to either pure strategy."""
        points = {p.strategy: p.total_time for p in fig12.defrag_strategy_comparison()}
        assert points["hybrid"] <= points["cpu"] + 1e-6
        assert points["hybrid"] <= points["pim"] + 1e-6

    def test_neither_pure_strategy_dominates_everywhere(self):
        """§7.4: parts of different widths prefer different strategies."""
        by_strategy = {p.strategy: p for p in fig12.defrag_strategy_comparison()}
        cpu = by_strategy["cpu"].per_part
        pim = by_strategy["pim"].per_part
        assert any(cpu[i] < pim[i] for i in cpu)
        assert any(pim[i] < cpu[i] for i in cpu)

    def test_wram_sweep_shapes(self):
        """Fig. 12b anchors: original gains ~6.4× from 16->256 kB and is
        ~3× slower than PUSHtap at 64 kB; PUSHtap's control share ~7 %."""
        points = fig12.wram_size_sweep()
        by_key = {(p.controller, p.wram_bytes): p for p in points}
        orig_gain = (
            by_key[("original", 16 * KIB)].q6_time
            / by_key[("original", 256 * KIB)].q6_time
        )
        speedup = (
            by_key[("original", 64 * KIB)].q6_time
            / by_key[("pushtap", 64 * KIB)].q6_time
        )
        assert 4 < orig_gain < 10
        assert 2 < speedup < 5
        assert by_key[("pushtap", 64 * KIB)].control_fraction < 0.15
        assert by_key[("original", 16 * KIB)].control_fraction > 0.8


class TestCLIRunner:
    def test_named_experiments_run(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig8b", "fig12a"]) == 0
        out = capsys.readouterr().out
        assert "fig8b" in out and "snapshot bitmap" in out
        assert "fig12a" in out and "hybrid" in out

    def test_fig12a_runs_on_hbm3(self, capsys):
        """HBM has no Eq. 3 crossover: the hybrid plan is all-CPU."""
        from repro.experiments.__main__ import main

        assert main(["fig12a", "--substrate", "hbm3"]) == 0
        assert "hybrid" in capsys.readouterr().out

    def test_rejects_unknown(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig99"])
