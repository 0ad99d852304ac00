"""One count per event: each twin counter is its stats record's delta.

An event that a stats record and a telemetry counter both keep is
counted at one call site (``telemetry.count`` / ``telemetry.tally``).
Each run below enables a registry after some events have already
happened, then checks that every twin counter equals its record's
delta over the enabled window, and that no twin counter exists for a
quantity that had no event in it.
"""

import collections
import re

import pytest

from repro import PushTapEngine
from repro.cluster.cluster import PushTapCluster
from repro.cluster.workload import ClusterWorkload
from repro.faults import plan as fault_plan
from repro.faults import sweep
from repro.faults.injector import FaultInjector, deactivate, install
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan, FaultRates
from repro.serve.loop import ServeConfig, ServeLoop
from repro.serve.slo import SLOTargets
from repro.telemetry import registry as telemetry

#: Counters whose record is a stats field or dict tally.
TWINS = re.compile(
    r"pim\.controller\.(launches|polls|handovers|handovers_saved|mode_batches)"
    r"|oltp\.txn\.(committed|aborted)|olap\.queries|wal\.(records|checkpoints)"
    r"|ivm\.(applied_records|recomputes|folded_rows)"
    r"|serve\.admission\.(admitted|rejected\.\w+)|serve\.scheduler\.(ivm|rescan)_flushes"
    r"|serve\.slo\.violations\.\w+|cluster\.twopc\.(committed|aborted(\.\w+)?)"
    r"|faults\.(injected\.\w+|detected\.\w+|retries|invariant\.checks)"
)
#: Twins counted by an amount, where one event may add 0 (a fold of no rows).
AMOUNTS = {"ivm.applied_records", "ivm.folded_rows"}


@pytest.fixture(autouse=True)
def _clean_switches():
    telemetry.disable()
    deactivate()
    yield
    telemetry.disable()
    deactivate()


def records(engines=(), twopc=None, loop=None, injector=None, checkers=()):
    """Every twin quantity the given objects hold, by counter name."""
    out = collections.Counter()
    for engine in engines:
        stats = engine.controller.stats
        for field in ("launches", "polls", "handovers", "handovers_saved", "mode_batches"):
            out[f"pim.controller.{field}"] += getattr(stats, field)
        out["oltp.txn.committed"] += engine.oltp.committed
        out["oltp.txn.aborted"] += engine.oltp.aborted
        out["olap.queries"] += engine.stats.queries
        if engine.durability is not None:
            out["wal.records"] += engine.durability.records
            out["wal.checkpoints"] += engine.durability.checkpoints
        if engine.ivm is not None:
            report = engine.ivm.report()
            for field in ("applied_records", "recomputes", "folded_rows"):
                out[f"ivm.{field}"] += report[field]
    if twopc is not None:
        out["cluster.twopc.committed"] += twopc.committed
        out["cluster.twopc.aborted"] += twopc.aborted
        for cause, n in twopc.aborts_by_cause.items():
            out[f"cluster.twopc.aborted.{cause}"] += n
    if loop is not None:
        admission = loop.admission.stats
        out["serve.admission.admitted"] += admission.admitted
        for reason, n in admission.rejected_by_reason.items():
            out[f"serve.admission.rejected.{reason}"] += n
        for mode in ("ivm", "rescan"):
            out[f"serve.scheduler.{mode}_flushes"] += getattr(loop.scheduler.stats, f"{mode}_flushes")
        for slo in loop.slo.tenants.values():
            for kind, n in slo.violations.items():
                out[f"serve.slo.violations.{kind}"] += n
    if injector is not None:
        for hook, n in injector.injected.items():
            out[f"faults.injected.{hook}"] += n
        for hook, n in injector.detected.items():
            out[f"faults.detected.{hook}"] += n
        out["faults.retries"] += injector.retries
    for checker in checkers:
        out["faults.invariant.checks"] += checker.checks
    return out


def assert_one_count(tel, before, after, scope=TWINS):
    """Each twin counter in ``scope`` is its record's delta, and exists
    only where the window had an event."""
    deltas = {name: value - before.get(name, 0) for name, value in after.items()}
    counted = {n: c.value for n, c in tel.counters.items() if scope.fullmatch(n)}
    assert set(counted) <= set(deltas), sorted(set(counted) - set(deltas))
    assert {n: v for n, v in counted.items() if v} == {n: d for n, d in deltas.items() if d}
    assert all(n in AMOUNTS for n, v in counted.items() if not v), counted
    return deltas


def test_mixed_run_with_wal_views_and_faults(tmp_path):
    engine = PushTapEngine.build(scale=2e-5, seed=3, defrag_period=60)
    engine.enable_durability(str(tmp_path / "wal"), checkpoint_every=25)
    engine.enable_ivm(("Q1", "Q6"))
    rates = {
        fault_plan.DROP_LAUNCH: 0.1,
        fault_plan.POLL_NOT_DONE: 0.1,
        fault_plan.DUPLICATE_LAUNCH: 0.1,
        fault_plan.FORCED_ABORT: 0.05,
    }
    injector = FaultInjector(FaultPlan(5, FaultRates(rates)))
    install(injector)
    checker = InvariantChecker(engine)
    driver = engine.make_driver(seed=1)

    def work():
        engine.run_transactions(40, driver)
        engine.query("Q6")
        engine.query_ivm("Q1")
        engine.query_batch(["Q1", "Q6"])
        checker.check()

    def snapshot():
        return records([engine], injector=injector, checkers=[checker])

    work()
    before = snapshot()
    tel = telemetry.enable()
    work()
    engine.defragment()
    work()
    deltas = assert_one_count(tel, before, snapshot())
    for name in ("oltp.txn.committed", "oltp.txn.aborted", "olap.queries", "wal.records",
                 "wal.checkpoints", "ivm.recomputes", "pim.controller.mode_batches",
                 "pim.controller.handovers_saved", "faults.retries",
                 "faults.invariant.checks"):
        assert deltas[name] > 0, name


def test_serve_run_counts_admission_flushes_and_violations():
    engine = PushTapEngine.build(scale=2e-5, seed=5)
    engine.run_transactions(20)
    engine.query("Q6")
    config = ServeConfig(
        tenants=2, requests_per_tenant=24, policy="batched", seed=9, olap_fraction=0.3,
        queue_depth=2, rate_per_tenant=400_000.0, ivm=True,
        slo=SLOTargets(oltp_ns=20_000.0, olap_ns=200_000.0),
    )
    loop = ServeLoop(engine, config)
    before = records([engine], loop=loop)
    tel = telemetry.enable()
    loop.run()
    deltas = assert_one_count(tel, before, records([engine], loop=loop))
    for name in ("serve.admission.admitted", "serve.admission.rejected.queue_full",
                 "serve.scheduler.rescan_flushes", "serve.slo.violations.oltp"):
        assert deltas[name] > 0, name


def test_sharded_2pc_run():
    cluster = PushTapCluster.build(
        shards=2, scale=2e-5, seed=7, block_rows=256, defrag_period=200
    )
    injector = FaultInjector(FaultPlan(2, FaultRates({
        fault_plan.TWOPC_PARTICIPANT_TIMEOUT: 0.3,
        fault_plan.TWOPC_LOST_PREPARE: 0.2,
    })))
    install(injector)
    workload = ClusterWorkload(cluster, txns_per_query=20, seed=11, remote_fraction=4.0)

    def snapshot():
        return records(cluster.engines, twopc=cluster.twopc, injector=injector)

    workload.run(1)
    before = snapshot()
    tel = telemetry.enable()
    workload.run(2)
    deltas = assert_one_count(tel, before, snapshot())
    assert deltas["cluster.twopc.committed"] > 0
    assert deltas["cluster.twopc.aborted"] > 0


def test_fault_sweep_cell(monkeypatch):
    """The registry turns on as the faulted run starts, after the clean
    run; the cell's fault and 2PC records are then the counters."""

    def install_and_enable(injector):
        install(injector)
        telemetry.enable()

    monkeypatch.setattr(sweep, "install", install_and_enable)
    rates = FaultRates({
        fault_plan.DROP_LAUNCH: 0.05,
        fault_plan.POLL_NOT_DONE: 0.05,
        fault_plan.TWOPC_COORDINATOR_CRASH: 0.2,
        fault_plan.TWOPC_PARTICIPANT_TIMEOUT: 0.2,
    })
    cell = sweep.run_fault_sweep(
        1, rates, "cluster", intervals=2, txns_per_query=10
    )
    assert cell.survived, cell.violations
    stats = cell.stats
    after = collections.Counter(
        {f"faults.injected.{hook}": n for hook, n in cell.injected.items()}
    )
    after.update({f"faults.detected.{hook}": n for hook, n in cell.detected.items()})
    after.update({
        "faults.retries": cell.retries,
        "faults.invariant.checks": cell.checks,
        "cluster.twopc.committed": stats["cross_shard_attempted"] - stats["cross_shard_aborted"],
        "cluster.twopc.aborted": stats["cross_shard_aborted"],
    })
    after.update({f"cluster.twopc.aborted.{c}": n for c, n in stats["aborts_by_cause"].items()})
    scope = re.compile(r"(faults|cluster\.twopc)\.(?!attempted).+")
    deltas = assert_one_count(telemetry.active(), {}, after, scope)
    assert deltas["cluster.twopc.aborted"] > 0 and deltas["faults.retries"] > 0
