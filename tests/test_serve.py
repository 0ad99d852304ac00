"""The serving layer: sessions, admission, scheduler, SLOs, determinism."""

import json

import pytest

from repro.core.engine import PushTapEngine
from repro.errors import ConfigError
from repro.faults import injector as faults
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CLIENT_DISCONNECT,
    QUEUE_OVERFLOW,
    SCHEDULER_STALL,
    FaultPlan,
    FaultRates,
)
from repro.faults.sweep import run_fault_sweep
from repro.serve.admission import AdmissionController, Request, TokenBucket
from repro.serve.loop import ServeConfig, ServeLoop
from repro.serve.runner import run_policy_ablation, run_serve
from repro.serve.scheduler import HTAPScheduler
from repro.serve.slo import SLOAccounting, SLOTargets
from repro.units import S
from repro.workloads.driver import WorkloadSession

from tests.conftest import ENGINE_KWARGS


@pytest.fixture(autouse=True)
def _clean_injector():
    """Every test starts and ends with the no-op injector installed."""
    faults.deactivate()
    yield
    faults.deactivate()


def small_config(**overrides):
    base = dict(
        tenants=2,
        requests_per_tenant=16,
        policy="batched",
        seed=7,
        olap_fraction=0.2,
    )
    base.update(overrides)
    return ServeConfig(**base)


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------
class TestWorkloadSession:
    def test_disjoint_order_ids(self, fresh_engine):
        """Two tenants' drivers must never collide on an order key —
        interleaved New-Orders from both sessions all commit."""
        sessions = [
            WorkloadSession(
                fresh_engine, tenant=t, num_tenants=2, olap_fraction=0.0
            )
            for t in range(2)
        ]
        for _ in range(15):
            for session in sessions:
                kind, txn = session.next_request()
                assert kind == "oltp"
                result = fresh_engine.execute_transaction(txn)
                assert not result.aborted

    def test_streams_are_decoupled(self, loaded_engine):
        """Tenant 0's request sequence is identical whether or not
        tenant 1 exists (independent derived RNG streams)."""

        def kinds(num_tenants):
            session = WorkloadSession(
                loaded_engine,
                tenant=0,
                num_tenants=num_tenants,
                olap_fraction=0.3,
            )
            return [session.next_request()[0] for _ in range(30)]

        assert kinds(1) == kinds(3)

    def test_validation(self, loaded_engine):
        with pytest.raises(ConfigError):
            WorkloadSession(loaded_engine, tenant=0, olap_fraction=1.5)
        with pytest.raises(ConfigError):
            WorkloadSession(loaded_engine, tenant=2, num_tenants=2)
        with pytest.raises(ConfigError):
            WorkloadSession(loaded_engine, tenant=0, queries=())


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
class TestAdmission:
    @staticmethod
    def request(seq, tenant=0):
        return Request(seq=seq, tenant=tenant, kind="oltp", payload=None,
                       submitted_at=0.0)

    def test_bounded_queue_sheds(self):
        admission = AdmissionController(1, queue_depth=3)
        admitted = [admission.admit(self.request(i), 0.0) for i in range(5)]
        assert admitted == [True, True, True, False, False]
        stats = admission.stats
        assert stats.submitted == 5
        assert stats.admitted == 3
        assert stats.rejected_by_reason == {"queue_full": 2}
        # Completion frees a slot.
        admission.release(0)
        assert admission.admit(self.request(5), 0.0)

    def test_token_bucket_rate_limits(self):
        # 2 req/s sustained with a 2-token burst: the 3rd instant
        # request is shed, but half a second refills one token.
        bucket = TokenBucket(rate=2.0, capacity=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert bucket.try_take(0.5 * S)

    def test_release_without_admission_raises(self):
        admission = AdmissionController(1)
        with pytest.raises(ConfigError):
            admission.release(0)

    def test_queue_overflow_fault_sheds_spuriously(self):
        faults.install(
            FaultInjector(FaultPlan(1, FaultRates({QUEUE_OVERFLOW: 1.0})))
        )
        admission = AdmissionController(1, queue_depth=100)
        assert not admission.admit(self.request(0), 0.0)
        assert admission.stats.rejected_by_reason == {"spurious_overflow": 1}
        assert faults.active().detected[QUEUE_OVERFLOW] == 1


# ---------------------------------------------------------------------------
# SLO accounting
# ---------------------------------------------------------------------------
class TestSLOAccounting:
    def test_quantiles_and_violations(self):
        slo = SLOAccounting(1, SLOTargets(oltp_ns=100.0, olap_ns=1000.0))
        for latency in (50.0, 150.0, 250.0):
            slo.on_submit(0)
            slo.on_complete(0, "oltp", latency, wait_ns=10.0)
        tenant = slo.tenants[0]
        assert tenant.violations["oltp"] == 2
        assert tenant.oltp_latency.p50 == pytest.approx(150.0)
        assert slo.errors() == []

    def test_conservation_catches_lost_request(self):
        slo = SLOAccounting(1, SLOTargets())
        slo.on_submit(0)
        assert slo.errors()  # admitted but never completed
        slo.on_complete(0, "oltp", 1.0, 0.0)
        assert slo.errors() == []
        assert slo.errors(residual_queued=1)

    def test_disconnects_balance_without_latency(self):
        slo = SLOAccounting(1, SLOTargets())
        slo.on_submit(0)
        slo.on_disconnect(0)
        assert slo.errors() == []
        assert slo.tenants[0].oltp_latency.count == 0


# ---------------------------------------------------------------------------
# End-to-end serve runs
# ---------------------------------------------------------------------------
class TestServeLoop:
    def test_deterministic_report(self):
        """The acceptance bar: identical config => byte-identical report."""
        r1 = run_serve(small_config())
        r2 = run_serve(small_config())
        assert json.dumps(r1.report, sort_keys=True) == json.dumps(
            r2.report, sort_keys=True
        )
        assert r1.slo_errors == []
        assert r1.requests == 2 * 16

    def test_every_request_accounted(self):
        result = run_serve(small_config(tenants=3, requests_per_tenant=20))
        report = result.report
        admission = report["admission"]
        assert admission["submitted"] == 60
        assert admission["admitted"] + admission["rejected"] == 60
        completed = sum(
            t["completed"] for t in report["tenants"].values()
        )
        assert completed + result.disconnects == admission["admitted"]
        assert report["slo_errors"] == []

    def test_saturation_sheds_load(self):
        """An open-loop rate far beyond service capacity must trigger
        rejections (bounded queues), never stalls or lost requests."""
        result = run_serve(
            small_config(rate_per_tenant=500_000.0, queue_depth=4)
        )
        assert result.report["admission"]["rejected"] > 0
        assert result.slo_errors == []

    def test_closed_loop_never_sheds_on_queue(self):
        """A closed-loop client keeps <=1 outstanding request, so the
        per-tenant bound can never fill."""
        result = run_serve(small_config(arrival="closed", queue_depth=2))
        assert result.report["admission"]["rejected"] == 0
        assert result.slo_errors == []

    def test_idling_to_the_max_wait_deadline_terminates(self):
        """Regression: the loop idles to ``enqueued_at + max_wait_ns`` and
        the trigger used to test ``now - enqueued_at >= max_wait_ns``; in
        floats ``(t + w) - t < w`` can hold, so the trigger never fired at
        the deadline and the clock stopped (5000 req/s/tenant, seed 11,
        default ``max_wait_ns``: stuck at now = 10226878.33 ns)."""
        engine = PushTapEngine.build(**ENGINE_KWARGS, extra_rows=2_000)
        config = ServeConfig(
            tenants=4, requests_per_tenant=80, policy="freshness", seed=11,
            olap_fraction=0.05, queue_depth=64, rate_per_tenant=5000.0,
        )
        loop = ServeLoop(engine, config)
        next_action = loop.scheduler.next_action
        iterations = 0

        def guarded(now, draining=False):
            nonlocal iterations
            iterations += 1
            assert iterations < 40 * 4 * 80, f"serve loop stuck at now={now!r}"
            return next_action(now, draining=draining)

        loop.scheduler.next_action = guarded
        result = loop.run()
        assert result.completed == 4 * 80
        assert result.slo_errors == []

    def test_max_wait_trigger_fires_exactly_at_the_deadline(self, loaded_engine):
        enqueued_at, wait = 15360279.878987255, 2_000_000.0
        assert (enqueued_at + wait) - enqueued_at < wait  # the float trap
        scheduler = HTAPScheduler(loaded_engine, 1, policy="batched", max_wait_ns=wait)
        scheduler.enqueue(Request(0, 0, "olap", "Q6", enqueued_at), enqueued_at)
        deadline = scheduler.next_deadline(enqueued_at)
        assert scheduler.next_action(deadline - 1.0) is None
        assert scheduler.next_action(deadline).kind == "olap"

    def test_naive_policy_runs_and_accounts(self):
        result = run_serve(small_config(policy="naive"))
        assert result.slo_errors == []
        sched = result.report["scheduler"]
        assert sched["olap_batches"] == sched["olap_dispatched"]
        assert sched["handovers_saved"] == 0

    def test_freshness_policy_bounds_staleness(self):
        """With a tight staleness SLA the freshness policy flushes long
        before the batch threshold; observed staleness stays near the
        SLA rather than growing with the queue."""
        sla = 10
        result = run_serve(
            small_config(
                policy="freshness",
                requests_per_tenant=40,
                rate_per_tenant=20_000.0,
                freshness_sla_txns=sla,
                batch_threshold=1_000,
                max_wait_ns=1e12,
                olap_fraction=0.3,
            )
        )
        fresh = result.report["freshness"]
        assert result.slo_errors == []
        assert result.report["scheduler"]["olap_batches"] >= 2
        # Staleness may overshoot by the transactions that were already
        # queued ahead of the flush decision, but not unboundedly.
        assert fresh["max_staleness_txns"] <= 5 * sla

    def test_slo_targets_flag_violations(self):
        result = run_serve(
            small_config(slo=SLOTargets(oltp_ns=1.0, olap_ns=1.0))
        )
        violations = sum(
            t["violations"]["oltp"] + t["violations"]["olap"]
            for t in result.report["tenants"].values()
        )
        completed = sum(
            t["completed"] for t in result.report["tenants"].values()
        )
        assert violations == completed  # 1 ns is unmeetable


# ---------------------------------------------------------------------------
# Scheduler policy ablation (the batching advantage)
# ---------------------------------------------------------------------------
class TestPolicyAblation:
    def test_batched_amortises_handover_on_identical_state(self):
        """The controlled comparison: same engine state, same queries —
        a batch pays one mode switch where switch-per-query pays a
        handover per LS launch. The saved handovers ARE the time gap."""
        queries = ["Q1", "Q6", "Q1", "Q6"]
        naive_engine = PushTapEngine.build(**ENGINE_KWARGS)
        naive_time = sum(
            naive_engine.query(q).total_time for q in queries
        )
        batch_engine = PushTapEngine.build(**ENGINE_KWARGS)
        batch = batch_engine.query_batch(queries)
        assert batch_engine.controller.stats.handovers_saved > 0
        saved = (
            naive_engine.controller.stats.handovers
            - batch_engine.controller.stats.handovers
        )
        assert saved > 0
        handover_ns = (
            batch_engine.config.mode_switch_latency
            * batch_engine.controller.num_ranks
        )
        batch_time = batch.switch_time + sum(r.total_time for r in batch.results)
        assert naive_time - batch_time == pytest.approx(
            saved * handover_ns
        )

    def test_ablation_batched_beats_naive_at_high_rate(self):
        report = run_policy_ablation(
            seed=7,
            tenants=2,
            requests_per_tenant=24,
            rates=(200_000.0,),
            policies=("naive", "batched"),
            olap_fraction=0.3,
            scale=2e-5,
        )
        by_policy = {c["policy"]: c for c in report["cells"]}
        naive, batched = by_policy["naive"], by_policy["batched"]
        assert batched["olap_qphh"] >= naive["olap_qphh"]
        # The telemetry counters explain the gap: what naive paid in
        # per-launch handovers, batched saved.
        assert batched["handovers_saved"] > 0
        assert naive["handovers"] > batched["handovers"]
        assert naive["handovers_saved"] == 0
        for cell in report["cells"]:
            assert cell["slo_errors"] == []


# ---------------------------------------------------------------------------
# Serve-layer fault hooks under the sweep harness
# ---------------------------------------------------------------------------
class TestServeFaults:
    def test_client_disconnect_rolls_back(self):
        faults.install(
            FaultInjector(FaultPlan(5, FaultRates({CLIENT_DISCONNECT: 0.3})))
        )
        engine = PushTapEngine.build(**ENGINE_KWARGS)
        loop = ServeLoop(engine, small_config(olap_fraction=0.0))
        result = loop.run()
        assert result.disconnects > 0
        assert result.slo_errors == []
        # Disconnected transactions aborted: committed < executed.
        disconnects = sum(
            t["disconnected"] for t in result.report["tenants"].values()
        )
        assert disconnects == result.disconnects

    def test_scheduler_stall_delays_but_drains(self):
        faults.install(
            FaultInjector(FaultPlan(5, FaultRates({SCHEDULER_STALL: 0.5})))
        )
        result = ServeLoop(
            PushTapEngine.build(**ENGINE_KWARGS),
            small_config(olap_fraction=0.4),
        ).run()
        sched = result.report["scheduler"]
        assert sched["stalls"] > 0
        assert result.slo_errors == []
        # Every admitted query was eventually dispatched.
        completed_olap = sum(
            t["olap"]["count"] for t in result.report["tenants"].values()
        )
        assert completed_olap == sched["olap_dispatched"]

    def test_serve_sweep_survives_all_three_hooks(self):
        rates = FaultRates(
            {CLIENT_DISCONNECT: 0.05, QUEUE_OVERFLOW: 0.05, SCHEDULER_STALL: 0.1}
        )
        result = run_fault_sweep(
            3, rates, txns_per_query=16, workload="serve"
        )
        assert result.survived
        assert result.violations == []
        assert result.workload == "serve"
        assert set(result.injected) <= {
            CLIENT_DISCONNECT, QUEUE_OVERFLOW, SCHEDULER_STALL,
        }
        assert result.injected  # at least one hook actually fired
        assert result.injected == result.detected
        assert result.checks > 0

    def test_abort_accounting_parity_across_drivers(self):
        """Regression: the serve loop counted aborted and disconnected
        transactions into ``engine.stats.transactions`` and the defrag
        period, diverging from ``execute_transaction`` semantics. Both
        drivers now count committed transactions only, on the OLTP
        engine's one commit counter."""
        from repro.oltp.tpcc import new_order

        # Direct driver: aborts leave the counters untouched.
        engine = PushTapEngine.build(**ENGINE_KWARGS)
        driver = engine.make_driver(seed=21)
        committed = 0
        for i in range(12):
            inner = new_order(driver.next_new_order())
            if i % 3 == 0:
                def aborting(ctx, _inner=inner):
                    _inner(ctx)
                    ctx.abort("parity test")
                engine.execute_transaction(aborting)
            else:
                engine.execute_transaction(inner)
                committed += 1
        assert engine.stats.transactions == committed
        assert engine.oltp.aborted == 4
        # The defrag period reads the same counter.
        assert engine.commits_since_defrag == committed

        # Serve driver: disconnected (aborted) transactions likewise.
        faults.install(
            FaultInjector(FaultPlan(5, FaultRates({CLIENT_DISCONNECT: 0.3})))
        )
        serve_engine = PushTapEngine.build(**ENGINE_KWARGS)
        result = ServeLoop(serve_engine, small_config(olap_fraction=0.0)).run()
        assert result.disconnects > 0
        tenants = result.report["tenants"]
        served = sum(t["completed"] - t["aborted"] for t in tenants.values())
        assert result.report["engine"]["transactions"] == served
        assert serve_engine.stats.transactions == served
        assert serve_engine.stats.defrag_runs == 0
        assert serve_engine.commits_since_defrag == served

    def test_sweep_report_carries_seed_and_plan_hash(self):
        rates = FaultRates({CLIENT_DISCONNECT: 0.05})
        result = run_fault_sweep(9, rates, txns_per_query=8, workload="serve")
        payload = result.as_dict()
        assert payload["seed"] == 9
        assert payload["plan_hash"] == FaultPlan(9, rates).content_hash()
        assert len(payload["plan_hash"]) == 64
        # The hash pins the determinism surface: same seed+rates agree,
        # different seeds differ.
        assert FaultPlan(9, rates).content_hash() != FaultPlan(
            10, rates
        ).content_hash()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestServeCLI:
    def test_serve_subcommand_writes_report(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "serve.json"
        rc = main([
            "serve", "--tenants", "2", "--requests", "12",
            "--policy", "batched", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["slo_errors"] == []
        assert report["requests"] == 24  # 2 tenants x 12 requests
        assert report["config"]["policy"] == "batched"
        assert set(report["tenants"]) == {"0", "1"}
        for tenant in report["tenants"].values():
            assert {"p50_ns", "p95_ns", "p99_ns"} <= set(tenant["oltp"])
        stdout = capsys.readouterr().out
        assert "policy batched" in stdout

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ServeConfig(tenants=0)
        with pytest.raises(ConfigError):
            ServeConfig(arrival="sideways")
        with pytest.raises(ConfigError):
            ServeConfig(arrival="open", rate_per_tenant=0.0)
        with pytest.raises(ConfigError):
            ServeConfig(policy="wishful")
        with pytest.raises(ConfigError):
            HTAPScheduler(None, 1, policy="wishful")

    def test_config_validates_full_determinism_surface(self):
        """Regression: out-of-range olap_fraction / queue_depth /
        tick_ns / max_wait_ns were silently accepted."""
        with pytest.raises(ConfigError):
            ServeConfig(olap_fraction=1.5)
        with pytest.raises(ConfigError):
            ServeConfig(olap_fraction=-0.1)
        with pytest.raises(ConfigError):
            ServeConfig(queue_depth=0)
        with pytest.raises(ConfigError):
            ServeConfig(tick_ns=0.0)
        with pytest.raises(ConfigError):
            ServeConfig(max_wait_ns=-1.0)
        # Boundary values are legal.
        ServeConfig(olap_fraction=0.0)
        ServeConfig(olap_fraction=1.0)
        ServeConfig(max_wait_ns=0.0)

    @pytest.mark.parametrize("field, value", [
        ("batch_threshold", 0),
        ("bucket_rate", -1.0),
        ("bucket_capacity", 0.0),
    ])
    def test_config_rejects_admission_and_batch_limits(self, field, value):
        """Regression: these were refused only by the scheduler or the
        token bucket, after the serve engine was built."""
        with pytest.raises(ConfigError, match=field):
            ServeConfig(**{field: value})

    def test_negative_freshness_sla_refused(self, tmp_path, capsys):
        """A negative staleness bound used to run as if it were 0; it is
        refused by name, and the CLI exits 2 before anything runs."""
        from repro.experiments.__main__ import main

        with pytest.raises(ConfigError, match="freshness_sla_txns must be >= 0"):
            ServeConfig(freshness_sla_txns=-1)
        ServeConfig(freshness_sla_txns=0)
        out = tmp_path / "serve.json"
        assert main(["serve", "--freshness-sla", "-1", "--out", str(out)]) == 2
        assert "freshness_sla_txns" in capsys.readouterr().err
        assert not out.exists()

    def test_report_config_block_is_complete(self):
        """Regression: think_ns, bucket_capacity, and tick_ns are part
        of the determinism surface but were missing from the report."""
        result = run_serve(small_config())
        config = result.report["config"]
        for key in ("think_ns", "bucket_capacity", "tick_ns"):
            assert key in config, key
        assert config["think_ns"] == small_config().think_ns
        assert config["bucket_capacity"] == small_config().bucket_capacity
        assert config["tick_ns"] == small_config().tick_ns


# ---------------------------------------------------------------------------
# Freshness bugfix (ISSUE 6 satellite): no-flush runs report 0.0
# ---------------------------------------------------------------------------
class TestFreshnessNoFlush:
    def test_tracker_report_before_any_flush(self):
        from repro.mvcc.timestamps import TimestampOracle
        from repro.serve.scheduler import FreshnessTracker

        tracker = FreshnessTracker(TimestampOracle())
        report = tracker.report()
        assert report["mean_staleness_txns"] == 0.0
        assert report["max_staleness_txns"] == 0

    def test_serve_run_without_olap_reports_zero(self):
        # olap_fraction=0 means the run ends before any analytical
        # flush; the freshness report must still be well-formed.
        result = run_serve(small_config(olap_fraction=0.0))
        fresh = result.report["freshness"]
        assert fresh["mean_staleness_txns"] == 0.0
        assert fresh["max_staleness_txns"] == 0
        assert result.slo_errors == []


# ---------------------------------------------------------------------------
# Incremental views in the serve loop (ISSUE 6 tentpole)
# ---------------------------------------------------------------------------
class TestServeIVM:
    def test_run_with_ivm_enabled(self):
        result = run_serve(small_config(ivm=True, olap_fraction=0.3))
        assert result.slo_errors == []
        sched = result.report["scheduler"]
        assert result.report["config"]["ivm"] is True
        assert sched["ivm"]["enabled"] is True
        # Every batched flush went through the apply-vs-rescan decision.
        assert (
            sched["ivm"]["ivm_flushes"] + sched["ivm"]["rescan_flushes"]
            == sched["olap_batches"]
        )
        assert set(sched["ivm"]["views"]) == {"Q1", "Q6", "Q9"}

    def test_ivm_runs_deterministic(self):
        import json

        a = run_serve(small_config(ivm=True, olap_fraction=0.3)).report
        b = run_serve(small_config(ivm=True, olap_fraction=0.3)).report
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_ablation_incremental_beats_rescan_at_high_rate(self):
        from repro.serve.runner import run_ivm_ablation

        report = run_ivm_ablation(
            seed=7,
            tenants=2,
            requests_per_tenant=24,
            rates=(200_000.0,),
            olap_fraction=0.3,
            scale=2e-5,
        )
        assert all(not c["slo_errors"] for c in report["cells"])
        (delta,) = report["deltas"]
        assert delta["olap_qphh_delta"] > 0
        assert delta["max_staleness_delta"] <= 0
        assert delta["max_snapshot_lag_delta_ns"] <= 0
        incremental = next(
            c for c in report["cells"] if c["mode"] == "incremental"
        )
        assert incremental["ivm_flushes"] > 0
