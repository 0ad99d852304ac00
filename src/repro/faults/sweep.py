"""The ``fault-sweep`` grid: one workload under injected faults, audited.

A sweep is a grid of *rows* (one :class:`FaultRates` each) × seeds; every
``(row, seed)`` cell is one :func:`run_fault_sweep` call and yields one
:class:`SweepCell`. The harness owns what every cell shares — the
:class:`FaultPlan` and its hash, the injector scope, the conversion of an
unabsorbed :class:`~repro.errors.ReproError` into ``error``, and the
injected/detected bookkeeping — and a table of workloads owns the rest:

* ``mixed`` — the batch HTAP mix (:class:`ClusterWorkload` over one
  engine as a one-shard cluster), clean and faulted, on two identically
  built engines;
* ``serve`` — the same comparison through the serving loop, which adds
  the serve-layer hooks (client disconnects, queue overflow, scheduler
  stalls);
* ``cluster`` — the sharded workload with 2PC; the hooks only fire on
  cross-shard transactions;
* ``crash`` — a WAL-enabled run killed by a ``crash_*`` hook, recovered
  from disk, and compared with a never-crashed reference run at the
  recovered commit horizon. Durability covers only what was
  acknowledged: a commit killed before its WAL append does not exist
  after recovery, which is why the reference stops at the recovered
  horizon, not at the crash point.

Each consistency guarantee is held by one named audit, and every entry
of ``SweepCell.violations`` carries its audit's prefix:

========== ====================== ==========================================
prefix     workloads              guarantee
========== ====================== ==========================================
invariant  all                    :class:`InvariantChecker` (controller,
                                  bank locks, MVCC version journal, snapshot
                                  bitmaps, indexes) after every injected
                                  fault, at safe points, and at the end
atomicity  cluster                no transaction committed on one shard and
                                  aborted on another (2PC outcome log)
bitmap     crash                  recovered row liveness equals the
                                  checkpointed liveness bitmaps
query      crash                  Q1/Q6/Q9 on the recovered engine are
                                  bit-identical to the reference's
serve      serve                  the SLO accounting conserves requests
========== ====================== ==========================================

A cell *survives* when it raised nothing and no audit found a violation.
Cells are bit-for-bit reproducible from their arguments.

This module sits at the top of the stack (it imports the engine, the
workload drivers, the cluster and the WAL) and is intentionally **not**
re-exported from :mod:`repro.faults`, whose injector the low-level layers
import.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import PushTapCluster
from repro.cluster.workload import ClusterWorkload
from repro.core.engine import PushTapEngine
from repro.errors import ConfigError, ReproError, SimulatedCrash
from repro.faults.injector import FaultInjector, deactivate, install
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import CRASH_HOOKS, TWOPC_HOOKS, FaultPlan, FaultRates
from repro.olap.queries import run_query
from repro.serve.loop import ServeConfig, ServeLoop
from repro.wal.recovery import recover

__all__ = ["DEFAULT_ROWS", "WORKLOADS", "SweepCell", "check_row", "run_fault_sweep", "sweep_report"]

#: Share of Delivery transactions in the single-engine mixes: keeps the
#: tombstone → defragmentation reconciliation path exercised.
DELIVERY_FRACTION = 0.1
#: Cluster remote-warehouse multiplier, well above the spec's 1.0 so that
#: cross-shard transactions (the only place the 2PC hooks fire) occur at
#: sweep scale; a near-zero remote rate would let a cell pass vacuously.
REMOTE_FRACTION = 4.0
#: The queries a crash run interleaves and compares after recovery.
CRASH_QUERIES: Tuple[str, ...] = ("Q1", "Q6", "Q9")


@dataclass
class SweepCell:
    """Outcome of one ``(rates, seed)`` cell of the sweep grid."""

    workload: str
    seed: int
    rates: Dict[str, float]
    #: SHA-256 of the fault plan's determinism surface (seed + rates) —
    #: two cells with equal hashes replayed the same fault schedule.
    plan_hash: str
    error: Optional[str] = None
    injected: Dict[str, int] = field(default_factory=dict)
    detected: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    checks: int = 0
    #: Audit findings, each prefixed ``invariant:``, ``atomicity:``,
    #: ``bitmap:``, ``query:`` or ``serve:``.
    violations: List[str] = field(default_factory=list)
    #: Workload-specific numbers (throughput and its loss, cross-shard
    #: counts, recovery horizons).
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def survived(self) -> bool:
        """No unabsorbed error and no audit violation."""
        return self.error is None and not self.violations

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable summary."""
        return {**asdict(self), "survived": self.survived}


def _engine_params(seed: int, scale: float, defrag_period: int, controller_kind: str) -> dict:
    return dict(
        scale=scale,
        seed=seed,
        controller_kind=controller_kind,
        defrag_period=defrag_period,
        block_rows=256,
    )


def _loss(baseline: float, faulted: float) -> float:
    """Fraction of ``baseline`` lost in the faulted run."""
    return 0.0 if baseline == 0 else 1.0 - faulted / baseline


def _record_checks(cell: SweepCell, checks: int, violations) -> None:
    cell.checks += checks
    cell.violations.extend(f"invariant: {v}" for v in violations)


def _final_audit(cell: SweepCell, system, checkers: List[InvariantChecker]) -> None:
    """The end-of-run audit: one more invariant check per engine."""
    for checker in checkers:
        checker.check()
    _record_checks(
        cell, sum(c.checks for c in checkers), [v for c in checkers for v in c.violations]
    )


def _clean_vs_faulted(cell: SweepCell, faulted, build, drive, audit=_final_audit) -> None:
    """Drive a clean build, then a second build with the injector installed.

    ``build()`` returns ``(system, engines)``; ``drive(system, checkers)``
    runs the workload and returns its ``(tpmc, qphh)``. The faulted run
    gets one invariant checker per engine, and ``audit(cell, system,
    checkers)`` closes it — also when the run raised.
    """
    tpmc, qphh = drive(build()[0], [])
    cell.stats.update(baseline_tpmc=tpmc, baseline_qphh=qphh)
    system, engines = build()
    checkers = [InvariantChecker(engine, raise_on_violation=False) for engine in engines]
    try:
        with faulted():
            faulted_tpmc, faulted_qphh = drive(system, checkers)
    finally:
        audit(cell, system, checkers)
    cell.stats.update(
        faulted_tpmc=faulted_tpmc,
        faulted_qphh=faulted_qphh,
        tpmc_degradation=_loss(tpmc, faulted_tpmc),
        qphh_degradation=_loss(qphh, faulted_qphh),
    )


def _single_engine(cell: SweepCell, scale: float, defrag_period: int, controller_kind: str):
    params = _engine_params(cell.seed, scale, defrag_period, controller_kind)

    def build():
        engine = PushTapEngine.build(**params)
        return engine, [engine]

    return build


def _mixed(
    cell: SweepCell,
    faulted,
    intervals: int = 6,
    txns_per_query: int = 30,
    scale: float = 2e-5,
    defrag_period: int = 200,
    controller_kind: str = "pushtap",
) -> None:
    def drive(engine, checkers):
        report = ClusterWorkload(
            PushTapCluster([engine], engine.table_counts()),
            txns_per_query=txns_per_query,
            seed=cell.seed,
            delivery_fraction=DELIVERY_FRACTION,
            invariant_checkers=checkers,
        ).run(intervals)
        return report.oltp_tpmc, report.olap_qphh

    build = _single_engine(cell, scale, defrag_period, controller_kind)
    _clean_vs_faulted(cell, faulted, build, drive)


def _serve(
    cell: SweepCell,
    faulted,
    txns_per_query: int = 30,
    scale: float = 2e-5,
    defrag_period: int = 200,
    controller_kind: str = "pushtap",
) -> None:
    config = ServeConfig(
        tenants=3,
        requests_per_tenant=max(8, txns_per_query),
        policy="batched",
        seed=cell.seed,
        arrival="open",
        rate_per_tenant=100_000.0,
        olap_fraction=0.2,
        queue_depth=12,
    )

    def drive(engine, checkers):
        checker = checkers[0] if checkers else None
        result = ServeLoop(engine, config, invariant_checker=checker).run()
        if checker is not None:
            cell.violations.extend(f"serve: {err}" for err in result.slo_errors)
        throughput = result.report["throughput"]
        return throughput["oltp_tpmc"], throughput["olap_qphh"]

    build = _single_engine(cell, scale, defrag_period, controller_kind)
    _clean_vs_faulted(cell, faulted, build, drive)


def _cluster(
    cell: SweepCell,
    faulted,
    shards: int = 2,
    intervals: int = 4,
    txns_per_query: int = 30,
    scale: float = 2e-5,
    defrag_period: int = 200,
    controller_kind: str = "pushtap",
    jobs: int = 1,
) -> None:
    """With ``jobs > 1`` both runs execute shard sub-streams on a process
    pool; the cell is identical to ``jobs=1``."""
    params = _engine_params(cell.seed, scale, defrag_period, controller_kind)
    # Insert capacity sized to the stream (appends accumulate in
    # ORDERLINE/HISTORY across the whole run).
    extra_rows = 12 * intervals * txns_per_query
    workloads: List[ClusterWorkload] = []

    def build():
        cluster = PushTapCluster.build(shards=shards, extra_rows=extra_rows, **params)
        return cluster, cluster.engines

    def drive(cluster, checkers):
        workload = ClusterWorkload(
            cluster,
            txns_per_query=txns_per_query,
            seed=cell.seed,
            remote_fraction=REMOTE_FRACTION,
            invariant_checkers=checkers,
            jobs=jobs,
        )
        workloads.append(workload)
        report = workload.run(intervals)
        if checkers:
            cell.stats.update(
                cross_shard_attempted=report.cross_shard_attempted,
                cross_shard_aborted=report.cross_shard_aborted,
                aborts_by_cause=dict(sorted(report.aborts_by_cause.items())),
            )
        return report.oltp_tpmc, report.olap_qphh

    def audit(cell, cluster, checkers):
        # Under jobs > 1 the shard data lives in the workers, which ran
        # the planned checks plus the end-of-stream audit.
        in_workers = workloads[-1].worker_invariants
        if in_workers:
            _record_checks(
                cell,
                sum(w["checks"] for w in in_workers),
                [v for w in in_workers for v in w["violations"]],
            )
        else:
            _final_audit(cell, cluster, checkers)
        cell.violations.extend(
            f"atomicity: {v}" for v in cluster.twopc.atomicity_violations()
        )

    _clean_vs_faulted(cell, faulted, build, drive, audit)


def _canonical_rows(rows: dict) -> List[Tuple[str, str]]:
    """Bit-faithful, order-free form of a query's result rows.

    ``repr`` of a Python float round-trips exactly, so two rows compare
    equal here iff their values are bit-identical.
    """

    def norm(value):
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, tuple):
            return tuple(norm(item) for item in value)
        return value

    return sorted((repr(norm(key)), repr(norm(value))) for key, value in rows.items())


def _crash(
    cell: SweepCell,
    faulted,
    intervals: int = 8,
    txns_per_query: int = 20,
    checkpoint_every: int = 24,
    scale: float = 2e-5,
    defrag_period: int = 100,
    controller_kind: str = "pushtap",
) -> None:
    """Crash → :func:`recover` → compare with a reference at the horizon.

    Every executed transaction consumes exactly one timestamp, so the
    reference run always hits the recovered horizon exactly.
    """
    params = _engine_params(cell.seed, scale, defrag_period, controller_kind)
    txns = intervals * txns_per_query
    with tempfile.TemporaryDirectory(prefix="crash-sweep-") as path:
        engine = PushTapEngine.build(**params)
        manager = engine.enable_durability(path, checkpoint_every=checkpoint_every)
        driver = engine.make_driver(seed=cell.seed, delivery_fraction=DELIVERY_FRACTION)
        committed = 0
        crashed_at: Optional[int] = None
        try:
            with faulted():
                for interval in range(intervals):
                    for _ in range(txns_per_query):
                        engine.execute_transaction(driver.next_transaction())
                        committed += 1
                    engine.query(CRASH_QUERIES[interval % len(CRASH_QUERIES)])
        except SimulatedCrash:
            crashed_at = committed
        finally:
            manager.close()
        cell.stats.update(crash_fired=crashed_at is not None, crashed_at_txn=crashed_at)

        result = recover(path, lambda: PushTapEngine.build(**params))
        horizon = result.horizon
        cell.stats.update(
            horizon=horizon,
            checkpoint_horizon=result.checkpoint_horizon,
            segments_applied=result.segments_applied,
            wal_records_replayed=result.wal_records_replayed,
            torn_tail=result.torn_tail,
            orphan_segments=len(result.orphan_segments),
        )
        recovered = result.engine
        _final_audit(cell, recovered, [InvariantChecker(recovered, raise_on_violation=False)])
        cell.violations.extend(f"bitmap: {m}" for m in result.bitmap_mismatches)

    reference = PushTapEngine.build(**params)
    ref_driver = reference.make_driver(seed=cell.seed, delivery_fraction=DELIVERY_FRACTION)
    ran = 0
    while reference.db.oracle.read_timestamp() < horizon:
        if ran == txns:
            raise ReproError(
                f"reference run overshot: horizon {horizon} not reachable "
                f"within {txns} transactions"
            )
        reference.execute_transaction(ref_driver.next_transaction())
        ran += 1
    for name in CRASH_QUERIES:
        got = _canonical_rows(run_query(name, recovered.olap, recovered.db, horizon).rows)
        want = _canonical_rows(run_query(name, reference.olap, reference.db, horizon).rows)
        if got != want:
            differing = sum(1 for g, w in zip(got, want) if g != w)
            cell.violations.append(
                f"query: {name}@ts={horizon}: recovered rows differ from "
                f"reference ({differing} of {max(len(got), len(want))} rows)"
            )


#: The sweep's workloads: each drives one cell given the harness's
#: injector scope (``faulted``) and its own keyword parameters.
WORKLOADS: Dict[str, Callable[..., None]] = {
    "mixed": _mixed,
    "serve": _serve,
    "cluster": _cluster,
    "crash": _crash,
}

#: Grid rows a sweep runs when none are given. The crash append hooks are
#: consulted once per commit; the checkpoint hook only once per spill, so
#: it needs a much higher rate to strike within a short run.
DEFAULT_ROWS: Dict[str, Tuple[str, ...]] = {
    "mixed": ("drop_launch=0.05,duplicate_launch=0.05,forced_abort=0.1",),
    "serve": ("client_disconnect=0.05,queue_overflow=0.05,scheduler_stall=0.1",),
    "cluster": tuple(f"{hook}=0.25" for hook in TWOPC_HOOKS),
    "crash": tuple(
        f"{hook}={rate}" for hook, rate in zip(CRASH_HOOKS, (0.05, 0.05, 0.5))
    ),
}


def check_row(workload: str, rates: FaultRates) -> None:
    """Raise :class:`ConfigError` unless ``rates`` is a grid row that can
    fail: a known workload, at least one active hook, and for ``crash``
    at least one crash hook (a row that injects nothing passes vacuously)."""
    if workload not in WORKLOADS:
        raise ConfigError(
            f"unknown sweep workload {workload!r}; expected one of {', '.join(WORKLOADS)}"
        )
    if not rates.active_hooks:
        raise ConfigError(f"{workload} sweep row enables no fault hook")
    if workload == "crash" and not set(rates.active_hooks) & set(CRASH_HOOKS):
        raise ConfigError(
            f"crash sweep row enables no crash hook ({', '.join(CRASH_HOOKS)})"
        )


def run_fault_sweep(
    seed: int, rates: FaultRates, workload: str = "mixed", **params
) -> SweepCell:
    """Run one cell of the sweep grid; see the module docstring.

    ``params`` go to the workload: ``intervals`` (not ``serve``),
    ``txns_per_query`` (requests per tenant for ``serve``), ``scale``,
    ``defrag_period``, ``controller_kind``, ``shards`` and ``jobs``
    (``cluster``), ``checkpoint_every`` (``crash``).
    """
    check_row(workload, rates)
    plan = FaultPlan(seed, rates)
    injector = FaultInjector(plan)
    cell = SweepCell(
        workload=workload,
        seed=seed,
        rates=dict(rates.rates),
        plan_hash=plan.content_hash(),
    )

    @contextmanager
    def faulted():
        install(injector)
        try:
            yield
        finally:
            deactivate()

    try:
        WORKLOADS[workload](cell, faulted, **params)
    except ReproError as exc:
        # The engine did not absorb the faults (e.g. retry budget
        # exhausted): report the failure instead of crashing the sweep.
        cell.error = f"{type(exc).__name__}: {exc}"
    cell.injected = dict(injector.injected)
    cell.detected = dict(injector.detected)
    cell.retries = injector.retries
    return cell


def sweep_report(
    workload: str = "mixed", rows: Optional[Sequence[str]] = None, seeds: Sequence[int] = (1,),
    **params,
) -> Dict[str, object]:
    """Every ``(row, seed)`` cell of one grid, as ``fault-sweep --out`` writes it; the
    ``rows`` specs (default: :data:`DEFAULT_ROWS`) are all checked before any cell runs."""
    specs = list(DEFAULT_ROWS[workload] if rows is None else rows)
    grid = [FaultRates.parse(spec) for spec in specs]
    for rates in grid:
        check_row(workload, rates)
    cells = [
        run_fault_sweep(seed, rates, workload, **params).as_dict()
        for rates in grid
        for seed in seeds
    ]
    return {
        "workload": workload, "rows": specs, "seeds": list(seeds), "params": params,
        "cells": cells, "survived": sum(cell["survived"] for cell in cells), "total": len(cells),
    }
