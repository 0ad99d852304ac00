"""The deterministic simulated-time serving loop.

:class:`ServeLoop` drives N concurrent client sessions against one
:class:`~repro.core.engine.PushTapEngine`.  Time is fully simulated (ns):
arrivals come from seeded per-tenant RNG streams, service times come from
the engine's cost models, and the loop itself is a single serial server —
so two runs with the same :class:`ServeConfig` produce bit-identical
reports, which is what makes the scheduler-policy ablation meaningful.

Arrival models (§7.3.3's workload, reshaped into a serving shape):

* ``open`` — open-loop Poisson: each tenant's arrivals are a Poisson
  process at ``rate_per_tenant`` requests per simulated second,
  independent of service progress.  This is the model that saturates the
  server and exercises admission control.
* ``closed`` — closed-loop think time: each tenant keeps at most one
  request outstanding and draws an exponential think time (mean
  ``think_ns``) after every completion or rejection.

Per-tenant RNG streams are decoupled (CRC-32 seed derivation), so adding
a tenant or changing the scheduler policy never perturbs another
tenant's request sequence — policy comparisons see identical offered
load.

Fault hooks exercised here (under ``fault-sweep --workload serve``):
:data:`~repro.faults.plan.CLIENT_DISCONNECT` (the client vanishes
mid-transaction; its writes roll back via the abort path),
:data:`~repro.faults.plan.QUEUE_OVERFLOW` (admission sheds spuriously),
and :data:`~repro.faults.plan.SCHEDULER_STALL` (missed dispatch ticks).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.engine import PushTapEngine
from repro.errors import ConfigError, TransactionAborted
from repro.faults import injector as faults
from repro.faults import plan as fault_plan
from repro.serve.admission import AdmissionController, Request
from repro.serve.scheduler import POLICIES, Action, HTAPScheduler
from repro.serve.slo import SLOAccounting, SLOTargets
from repro.telemetry import registry as telemetry
from repro.units import S, qphh, tpmc
from repro.workloads.driver import WorkloadSession, _derive_seed

__all__ = ["ServeConfig", "ServeLoop", "ServeResult"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything one serve run depends on (the determinism surface)."""

    tenants: int = 4
    requests_per_tenant: int = 64
    policy: str = "batched"
    seed: int = 7
    #: "open" (Poisson) or "closed" (think time, <=1 outstanding).
    arrival: str = "open"
    #: Open-loop arrival rate per tenant, requests per simulated second.
    rate_per_tenant: float = 50_000.0
    #: Closed-loop mean think time (ns).
    think_ns: float = 20_000.0
    olap_fraction: float = 0.1
    queue_depth: int = 16
    #: Token-bucket rate per tenant (req/s); 0 disables rate limiting.
    bucket_rate: float = 0.0
    bucket_capacity: float = 8.0
    batch_threshold: int = 4
    max_wait_ns: float = 2_000_000.0
    freshness_sla_txns: int = 64
    tick_ns: float = 10_000.0
    #: Maintain incremental views and let the scheduler answer flushes
    #: from them when folding pending deltas beats a full rescan.
    ivm: bool = False
    slo: SLOTargets = field(default_factory=SLOTargets)

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ConfigError("tenants must be >= 1")
        if self.requests_per_tenant < 1:
            raise ConfigError("requests_per_tenant must be >= 1")
        if self.policy not in POLICIES:
            raise ConfigError(f"policy must be one of {', '.join(POLICIES)}")
        if self.arrival not in ("open", "closed"):
            raise ConfigError("arrival must be 'open' or 'closed'")
        if self.arrival == "open" and self.rate_per_tenant <= 0:
            raise ConfigError("open-loop arrivals need rate_per_tenant > 0")
        if self.arrival == "closed" and self.think_ns < 0:
            raise ConfigError("think_ns must be >= 0")
        if not 0.0 <= self.olap_fraction <= 1.0:
            raise ConfigError("olap_fraction must be within [0, 1]")
        if self.queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")
        if self.tick_ns <= 0:
            raise ConfigError("tick_ns must be > 0")
        if self.max_wait_ns < 0:
            raise ConfigError("max_wait_ns must be >= 0")
        if self.freshness_sla_txns < 0:
            raise ConfigError("freshness_sla_txns must be >= 0")


@dataclass
class ServeResult:
    """Outcome of one serve run (all counters + the SLO report)."""

    config: ServeConfig
    simulated_time_ns: float
    requests: int
    completed: int
    disconnects: int
    slo_errors: List[str]
    report: Dict[str, object]


class ServeLoop:
    """Serial simulated server over N seeded client sessions."""

    def __init__(
        self,
        engine: PushTapEngine,
        config: ServeConfig,
        invariant_checker=None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.invariant_checker = invariant_checker
        self.sessions: Dict[int, WorkloadSession] = {
            t: WorkloadSession(
                engine,
                tenant=t,
                num_tenants=config.tenants,
                seed=config.seed,
                olap_fraction=config.olap_fraction,
            )
            for t in range(config.tenants)
        }
        self._arrival_rngs: Dict[int, np.random.RandomState] = {
            t: np.random.RandomState(
                _derive_seed(config.seed, f"tenant{t}.arrival")
            )
            for t in range(config.tenants)
        }
        self.admission = AdmissionController(
            config.tenants,
            queue_depth=config.queue_depth,
            bucket_rate=config.bucket_rate,
            bucket_capacity=config.bucket_capacity,
        )
        if config.ivm:
            # Registers the CH-bench views the sessions will ask for
            # (initial population is load-time work, before time starts).
            engine.enable_ivm()
        self.scheduler = HTAPScheduler(
            engine,
            config.tenants,
            policy=config.policy,
            batch_threshold=config.batch_threshold,
            max_wait_ns=config.max_wait_ns,
            freshness_sla_txns=config.freshness_sla_txns,
            tick_ns=config.tick_ns,
            ivm=config.ivm,
        )
        self.slo = SLOAccounting(config.tenants, config.slo)
        self.now = 0.0
        self._seq = 0
        self._heap: List[Tuple[float, int, int]] = []  # (time, seq, tenant)
        self._remaining: Dict[int, int] = {
            t: config.requests_per_tenant for t in range(config.tenants)
        }
        self.disconnects = 0

    # ------------------------------------------------------------------
    # Arrival generation
    # ------------------------------------------------------------------
    def _push_arrival(self, tenant: int, at: float) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, tenant))

    def _seed_arrivals(self) -> None:
        cfg = self.config
        if cfg.arrival == "open":
            # The whole Poisson process is known up front: exponential
            # inter-arrivals at the configured rate, per tenant.
            mean_gap = S / cfg.rate_per_tenant
            for t in range(cfg.tenants):
                at = 0.0
                rng = self._arrival_rngs[t]
                for _ in range(cfg.requests_per_tenant):
                    at += rng.exponential(mean_gap)
                    self._push_arrival(t, at)
                self._remaining[t] = 0
        else:
            # Closed loop: one initial arrival each; the next is
            # scheduled when this one finishes (or is shed).
            for t in range(cfg.tenants):
                self._remaining[t] -= 1
                self._push_arrival(t, self._think(t))

    def _think(self, tenant: int) -> float:
        if self.config.think_ns == 0:
            return 0.0
        return float(self._arrival_rngs[tenant].exponential(self.config.think_ns))

    def _next_closed_arrival(self, tenant: int) -> None:
        """Schedule the tenant's next closed-loop request, if any remain."""
        if self.config.arrival == "closed" and self._remaining[tenant] > 0:
            self._remaining[tenant] -= 1
            self._push_arrival(tenant, self.now + self._think(tenant))

    # ------------------------------------------------------------------
    # Arrival processing
    # ------------------------------------------------------------------
    def _drain_arrivals(self) -> None:
        while self._heap and self._heap[0][0] <= self.now:
            at, seq, tenant = heapq.heappop(self._heap)
            kind, payload = self.sessions[tenant].next_request()
            request = Request(
                seq=seq,
                tenant=tenant,
                kind=kind,
                payload=payload,
                submitted_at=at,
                arrival_horizon=self.engine.db.oracle.read_timestamp(),
            )
            self.slo.on_submit(tenant)
            if self.admission.admit(request, at):
                self.scheduler.enqueue(request, at)
            else:
                self.slo.on_reject(tenant)
                # A shed closed-loop client moves on to its next request
                # after thinking; an open-loop client was never waiting.
                self._next_closed_arrival(tenant)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _maybe_check(self, force: bool = False) -> None:
        checker = self.invariant_checker
        if checker is None:
            return
        pending = faults.active().take_pending_checks()
        if pending or force:
            checker.check()

    def _complete(
        self, request: Request, wait_ns: float, aborted: bool
    ) -> None:
        latency = self.now - request.submitted_at
        self.slo.on_complete(
            request.tenant, request.kind, latency, wait_ns, aborted=aborted
        )
        self.admission.release(request.tenant)
        tel = telemetry.active()
        if tel.enabled:
            tel.record_span(
                "serve.request",
                latency,
                {"tenant": request.tenant, "kind": request.kind},
                start=request.submitted_at,
            )
        self._next_closed_arrival(request.tenant)

    def _execute_oltp(self, request: Request) -> None:
        dispatched_at = self.now
        txn = request.payload
        inj = faults.active()
        disconnected = inj.enabled and inj.fire(fault_plan.CLIENT_DISCONNECT)
        if disconnected:
            # The client vanishes after issuing its writes but before
            # commit: the transaction body runs, then the connection
            # teardown aborts it — every write must roll back.
            def _disconnected(ctx, _txn=txn):
                _txn(ctx)
                raise TransactionAborted("client disconnected mid-transaction")

            result = self.engine.oltp.execute(_disconnected)
        else:
            result = self.engine.oltp.execute(txn)
        # Not execute_transaction: defrag stays a scheduler decision.
        # total_time includes any WAL append, so the clock covers it.
        self.now += result.total_time
        if result.aborted:
            self.sessions[request.tenant].note_abort(txn)
        if disconnected:
            inj.detect(fault_plan.CLIENT_DISCONNECT)
            self.disconnects += 1
            self.slo.on_disconnect(request.tenant)
            self.admission.release(request.tenant)
            self._next_closed_arrival(request.tenant)
        else:
            self._complete(
                request, dispatched_at - request.submitted_at, result.aborted
            )
        self._maybe_check()

    def _execute_olap(self, batch: List[Request]) -> None:
        dispatched_at = self.now
        freshness = self.scheduler.freshness
        lags = [freshness.note_query(r.arrival_horizon) for r in batch]
        tel = telemetry.active()
        if self.scheduler.policy == "naive":
            # Switch-per-query: each query pays its own handovers.
            for request in batch:
                result = self.engine.query(request.payload)
                self.now += result.total_time
                self._complete(
                    request, dispatched_at - request.submitted_at, False
                )
        else:
            names = [r.payload for r in batch]
            mode = self.scheduler.choose_olap_mode(names)
            result = self.engine.query_batch(names, use_ivm=(mode == "ivm"))
            if mode != "ivm":
                self.scheduler.note_rescan(
                    sum(q.total_time for q in result.results), len(names)
                )
            # Queries inside the batch complete serially after the one
            # shared mode switch; each sees its own completion time.
            self.now += result.switch_time
            for request, query in zip(batch, result.results):
                self.now += query.total_time
                self._complete(
                    request, dispatched_at - request.submitted_at, False
                )
        if tel.enabled:
            for request, lag in zip(batch, lags):
                tel.histogram("serve.freshness.lag_txns").observe(lag)
        freshness.note_flush(self.now)
        self._maybe_check(force=True)

    def _execute(self, action: Action) -> None:
        if action.kind == "oltp":
            self._execute_oltp(action.requests[0])
        elif action.kind == "olap":
            self._execute_olap(action.requests)
        elif action.kind == "defrag":
            results = self.engine.defragment()
            self.now += sum(r.total_time for r in results.values())
            self._maybe_check(force=True)
        elif action.kind == "stall":
            inj = faults.active()
            self.now += action.ticks * self.config.tick_ns
            inj.detect(fault_plan.SCHEDULER_STALL)
        else:  # pragma: no cover - scheduler emits only the kinds above
            raise ConfigError(f"unknown action kind {action.kind!r}")

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> ServeResult:
        """Serve every request; returns the full accounting."""
        self._seed_arrivals()
        tel = telemetry.active()
        while self._heap or self.scheduler.has_work():
            self._drain_arrivals()
            draining = not self._heap
            action = self.scheduler.next_action(self.now, draining=draining)
            if action is None:
                if not self._heap:
                    break  # nothing queued, nothing arriving
                # Idle until the next arrival or the batch max-wait
                # deadline, whichever is sooner.
                target = self._heap[0][0]
                deadline = self.scheduler.next_deadline(self.now)
                if deadline is not None:
                    target = min(target, deadline)
                self.now = max(self.now, target)
                if tel.enabled:
                    tel.advance_to(self.now)
                continue
            self._execute(action)
            if tel.enabled:
                tel.advance_to(self.now)
        self._maybe_check(force=True)
        return self._result()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _result(self) -> ServeResult:
        cfg = self.config
        residual = self.scheduler.pending() + self.admission.total_occupancy
        errors = self.slo.errors(residual_queued=residual)
        completed = sum(s.completed for s in self.slo.tenants.values())
        stats = self.engine.stats
        sim = self.now
        report: Dict[str, object] = {
            "config": {
                "tenants": cfg.tenants,
                "requests_per_tenant": cfg.requests_per_tenant,
                "policy": cfg.policy,
                "seed": cfg.seed,
                "arrival": cfg.arrival,
                "rate_per_tenant": cfg.rate_per_tenant,
                "think_ns": cfg.think_ns,
                "olap_fraction": cfg.olap_fraction,
                "queue_depth": cfg.queue_depth,
                "bucket_rate": cfg.bucket_rate,
                "bucket_capacity": cfg.bucket_capacity,
                "batch_threshold": cfg.batch_threshold,
                "max_wait_ns": cfg.max_wait_ns,
                "tick_ns": cfg.tick_ns,
                "freshness_sla_txns": cfg.freshness_sla_txns,
                "ivm": cfg.ivm,
                "slo_oltp_ns": cfg.slo.oltp_ns,
                "slo_olap_ns": cfg.slo.olap_ns,
            },
            "simulated_time_ns": sim,
            "requests": self.admission.stats.submitted,
            "admission": {
                "submitted": self.admission.stats.submitted,
                "admitted": self.admission.stats.admitted,
                "rejected": self.admission.stats.rejected,
                "rejected_by_reason": dict(
                    self.admission.stats.rejected_by_reason
                ),
            },
            "scheduler": self.scheduler.report(),
            "freshness": self.scheduler.freshness.report(),
            "tenants": self.slo.report(),
            "engine": {
                "transactions": stats.transactions,
                "queries": stats.queries,
                "oltp_time_ns": stats.oltp_time,
                "olap_time_ns": stats.olap_time,
                "defrag_time_ns": stats.defrag_time,
                "defrag_runs": stats.defrag_runs,
            },
            "throughput": {
                # stats.transactions counts commits only (aborts and
                # disconnects never reach it), so it *is* the tpmC base.
                "oltp_tpmc": tpmc(stats.transactions, sim),
                "olap_qphh": qphh(stats.queries, sim),
                "olap_qphh_busy": qphh(stats.queries, stats.olap_time),
            },
            "disconnects": self.disconnects,
            "slo_errors": errors,
        }
        return ServeResult(
            config=cfg,
            simulated_time_ns=sim,
            requests=self.admission.stats.submitted,
            completed=completed,
            disconnects=self.disconnects,
            slo_errors=errors,
            report=report,
        )
