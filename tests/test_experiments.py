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


class TestCLIOutputPaths:
    @pytest.mark.parametrize("argv, module, runner", [
        (["serve"], "repro.serve.runner", "run_serve"),
        (["serve", "--ablation"], "repro.serve.runner", "run_serve_ablation"),
        (["roofline"], "repro.bench.roofline", "run_roofline"),
        (["cluster"], "repro.experiments.cluster", "run_cluster_bench"),
    ])
    def test_unwritable_out_fails_before_any_run(
        self, argv, module, runner, tmp_path, monkeypatch, capsys
    ):
        import functools
        import importlib

        from repro.experiments.__main__ import main

        module = importlib.import_module(module)

        # wraps: the CLI types its flags from the runner's signature.
        @functools.wraps(getattr(module, runner))
        def no_run(*args, **kwargs):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setattr(module, runner, no_run)
        assert main([*argv, "--out", str(tmp_path / "missing" / "out.json")]) == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", [
        (["roofline", "--substrates", "ddr5", "--sizes", "512",
          "--micro-sizes", "8"], "trace_check"),
        (["cluster", "--shards", "1", "2", "--remote-fractions", "0",
          "--intervals", "1", "--txns-per-query", "5"], "scaling"),
    ])
    def test_out_writes_the_snapshot(self, argv, key, tmp_path, monkeypatch):
        import json

        from repro.experiments.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "snapshot.json"]) == 0
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert key in snapshot and "tag" not in snapshot
        assert [p.name for p in tmp_path.iterdir()] == ["snapshot.json"]


class _Parsed(Exception):
    """Raised in place of parsing a command line; carries the parser."""


def _callees(command):
    """The callables whose signatures type a subcommand's flags."""
    from repro.bench.roofline import run_roofline
    from repro.experiments.cluster import run_cluster_bench
    from repro.faults.sweep import WORKLOADS
    from repro.serve.loop import ServeConfig
    from repro.serve.runner import run_serve, run_serve_ablation
    from repro.serve.slo import SLOTargets
    from repro.trace.profile import run_profile

    return {
        "fault-sweep": list(WORKLOADS.values()),
        "profile": [run_profile],
        "serve": [ServeConfig, SLOTargets, run_serve, run_serve_ablation],
        "roofline": [run_roofline],
        "cluster": [run_cluster_bench],
    }[command]


class TestCLIFlags:
    """Parameter flags are derived from the signatures they set."""

    #: Every subcommand's option strings, as the CLI had them before the
    #: flags were derived; deriving them may not add, drop or rename one.
    OPTIONS = {
        "report-metrics": {"-h", "--help", "--csv"},
        "fault-sweep": {
            "-h", "--help", "--workload", "--rates", "--seed", "--intervals",
            "--txns-per-query", "--scale", "--defrag-period", "--controller",
            "--shards", "--checkpoint-every", "--metrics-out", "--out",
        },
        "profile": {
            "-h", "--help", "--workload", "--model", "--intervals", "--txns-per-query",
            "--scale", "--defrag-period", "--seed", "--out-dir", "--top",
        },
        "serve": {
            "-h", "--help", "--tenants", "--requests", "--policy", "--seed",
            "--arrival", "--rate", "--think-ns", "--olap-fraction", "--queue-depth",
            "--bucket-rate", "--batch-threshold", "--freshness-sla", "--slo-oltp-ns",
            "--slo-olap-ns", "--scale", "--controller", "--ablation", "--ivm", "--out",
        },
        "roofline": {
            "-h", "--help", "--substrates", "--sizes", "--micro-sizes", "--block-rows",
            "--out",
        },
        "cluster": {
            "-h", "--help", "--shards", "--remote-fractions", "--intervals",
            "--txns-per-query", "--scale", "--seed", "--interconnect-ns",
            "--defrag-period", "--out", "--check", "--min-scaling", "--jobs",
        },
        "figures": {"-h", "--help", "--substrate", "--metrics-out"},
    }

    @staticmethod
    def parser(command, monkeypatch):
        import argparse

        from repro.experiments.__main__ import main

        def capture(self, args=None, namespace=None):
            raise _Parsed(self)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
        with pytest.raises(_Parsed) as parsed:
            main(["fig8a"] if command == "figures" else [command])
        monkeypatch.undo()
        return parsed.value.args[0]

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_option_strings_unchanged(self, command, monkeypatch):
        parser = self.parser(command, monkeypatch)
        options = {o for action in parser._actions for o in action.option_strings}
        assert options == self.OPTIONS[command]

    @pytest.mark.parametrize("command", ["cluster", "fault-sweep", "profile", "roofline", "serve"])
    def test_defaults_live_in_the_callee(self, command, monkeypatch):
        """Parsing no flags sets no derived attribute, and each derived
        flag's help names the default of every callee that takes it."""
        import inspect

        parser = self.parser(command, monkeypatch)
        derived = parser.derived
        assert derived and not set(vars(parser.parse_args([]))) & set(derived)
        signatures = [inspect.signature(c).parameters for c in _callees(command)]
        for action in parser._actions:
            if action.dest not in derived:
                continue
            defaults = [p[action.dest].default for p in signatures if action.dest in p]
            assert defaults, action.dest
            for default in defaults:
                assert repr(default) in action.help, (action.dest, action.help)

    @pytest.mark.parametrize("argv, flag", [
        (["fault-sweep", "--workload", "serve", "--intervals", "2"], "--intervals"),
        (["serve", "--ablation", "--policy", "naive"], "--policy"),
    ])
    def test_flag_the_callee_does_not_take_exits_2(self, argv, flag, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"{flag} does not apply" in capsys.readouterr().err

    def test_kwargs_callee_takes_every_flag(self, monkeypatch):
        from repro.experiments.__main__ import main
        from repro.faults import sweep

        seen = {}
        monkeypatch.setitem(
            sweep.WORKLOADS, "mixed", lambda cell, faulted, **params: seen.update(params)
        )
        argv = ["fault-sweep", "--rates", "forced_abort=0.1", "--shards", "3"]
        assert main(argv) == 0
        assert seen == {"shards": 3}

    @pytest.mark.parametrize("argv, field", [
        (["serve", "--tenants", "0"], "tenants"),
        (["serve", "--ablation", "--olap-fraction", "0"], "olap_fraction"),
        (["profile", "--intervals", "0"], "intervals"),
        (["cluster", "--shards", "0"], "shard_counts"),
        (["roofline", "--block-rows", "0"], "block_rows"),
        (["roofline", "--sizes", "0"], "sizes"),
        (["roofline", "--block-rows", "12"], "block_rows"),
    ])
    def test_config_error_exits_2_naming_the_field(self, argv, field, capsys):
        from repro.experiments.__main__ import main

        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err
