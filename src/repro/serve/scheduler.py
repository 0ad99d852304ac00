"""The adaptive HTAP scheduler: when to flip banks into PIM mode.

PUSHtap's cheap bank mode switch (§3) makes OLAP affordable *between*
transactions, but every analytical launch still pays a per-launch
handover unless launches are batched under one switch
(:meth:`~repro.core.engine.PushTapEngine.query_batch`).  The scheduler
decides **when** that flip happens:

* ``naive`` — switch per query: every queued analytical query runs
  immediately through :meth:`~repro.core.engine.PushTapEngine.query`,
  paying the handover on each ``LS`` launch.  Minimum freshness lag,
  maximum switch overhead.
* ``batched`` — accumulate queued OLAP queries until ``batch_threshold``
  of them wait (or the oldest has waited ``max_wait_ns``), then flush
  the whole batch under one mode switch.  The skipped per-launch
  handovers are counted in ``pim.controller.handovers_saved`` — that
  counter *is* the throughput gap against ``naive``.
* ``freshness`` — flush when the OLAP snapshot's staleness (committed
  transactions since the last flush) exceeds ``freshness_sla_txns``,
  bounding how stale analytics may get regardless of queue depth; the
  batch threshold and max-wait still apply as upper bounds.

Transactions always take priority over an un-triggered OLAP queue (OLTP
latency is the tighter SLO); defragmentation preempts both, since a full
delta region blocks the write path entirely.

The :data:`~repro.faults.plan.SCHEDULER_STALL` hook models missed
dispatch ticks: the scheduler sits idle for 1–3 ticks while OLAP backs
up, then recovers — queued queries must drain with accounting intact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.core.engine import PushTapEngine
from repro.errors import ConfigError
from repro.faults import injector as faults
from repro.faults import plan as fault_plan
from repro.mvcc.timestamps import TimestampOracle
from repro.serve.admission import Request
from repro.telemetry import registry as telemetry
from repro.telemetry.metrics import Histogram

__all__ = ["POLICIES", "Action", "FreshnessTracker", "HTAPScheduler", "SchedulerStats"]

POLICIES = ("naive", "batched", "freshness")


class FreshnessTracker:
    """Measures OLAP snapshot lag in committed-transaction timestamps.

    *Staleness* is how many transactions have committed since the last
    analytical flush — the quantity the ``freshness`` policy bounds.
    *Per-query lag* is how many transactions committed while one query
    sat in the queue (horizon at dispatch minus horizon at arrival) —
    the price a query pays for batching.
    *Snapshot lag* is the simulated time between consecutive flush
    completions — how long the analytical horizon trailed the commit
    horizon.  It is the lag axis the incremental-vs-rescan ablation
    compares: unlike staleness-at-flush, it is not deflated when a slow
    rescan backlogs OLAP arrivals into back-to-back flushes.
    """

    def __init__(self, oracle: TimestampOracle) -> None:
        self.oracle = oracle
        self.last_snapshot_ts = oracle.read_timestamp()
        self.lag = Histogram("serve.freshness.lag_txns")
        self.staleness_at_flush = Histogram("serve.freshness.staleness_txns")
        self.max_staleness = 0
        self.last_flush_time = 0.0
        self.flush_gap = Histogram("serve.freshness.flush_gap_ns")

    def staleness(self) -> int:
        """Committed transactions since the last analytical flush."""
        return self.oracle.read_timestamp() - self.last_snapshot_ts

    def note_query(self, arrival_horizon: int) -> int:
        """Record one dispatched query's lag; returns it."""
        lag = self.oracle.read_timestamp() - arrival_horizon
        self.lag.observe(lag)
        return lag

    def note_flush(self, now: float = 0.0) -> None:
        """An analytical flush just completed at simulated time ``now``."""
        staleness = self.staleness()
        self.staleness_at_flush.observe(staleness)
        self.max_staleness = max(self.max_staleness, staleness)
        self.last_snapshot_ts = self.oracle.read_timestamp()
        self.flush_gap.observe(now - self.last_flush_time)
        self.last_flush_time = now
        tel = telemetry.active()
        if tel.enabled:
            tel.gauge("serve.freshness.staleness_txns").set(staleness)

    def report(self) -> Dict[str, object]:
        # A run can end before any analytical flush; the mean staleness
        # is then explicitly 0.0 rather than whatever an empty histogram
        # yields (a NaN would poison the JSON report downstream).
        if self.staleness_at_flush.count:
            mean_staleness = self.staleness_at_flush.mean
        else:
            mean_staleness = 0.0
        return {
            "max_staleness_txns": self.max_staleness,
            "mean_staleness_txns": mean_staleness,
            "max_snapshot_lag_ns": (
                self.flush_gap.max if self.flush_gap.count else 0.0
            ),
            "mean_snapshot_lag_ns": (
                self.flush_gap.mean if self.flush_gap.count else 0.0
            ),
            "lag_txns": {
                "count": self.lag.count,
                "mean": self.lag.mean,
                "p50": self.lag.p50,
                "p95": self.lag.p95,
                "p99": self.lag.p99,
                "max": self.lag.max,
            },
        }


@dataclass
class SchedulerStats:
    """Dispatch counters of one serve run."""

    oltp_dispatched: int = 0
    olap_dispatched: int = 0
    olap_batches: int = 0
    batched_queries: int = 0
    defrag_dispatched: int = 0
    stalls: int = 0
    stall_ticks: int = 0
    #: Flushes answered by folding view deltas vs by full rescan (the
    #: per-flush apply-vs-rescan decision; rescan counts non-naive
    #: flushes even when IVM is disabled).
    ivm_flushes: int = 0
    rescan_flushes: int = 0
    ivm_queries: int = 0


@dataclass
class Action:
    """One scheduling decision for the loop to execute."""

    kind: str  # "oltp" | "olap" | "defrag" | "stall"
    requests: List[Request] = field(default_factory=list)
    ticks: int = 0  # stall only


class HTAPScheduler:
    """Decides the next unit of work: OLTP, OLAP flush, defrag, or idle."""

    def __init__(
        self,
        engine: PushTapEngine,
        num_tenants: int,
        policy: str = "batched",
        batch_threshold: int = 4,
        max_wait_ns: float = 2_000_000.0,
        freshness_sla_txns: int = 64,
        tick_ns: float = 10_000.0,
        ivm: bool = False,
    ) -> None:
        if policy not in POLICIES:
            raise ConfigError(
                f"unknown scheduler policy {policy!r} (choose from {POLICIES})"
            )
        if batch_threshold < 1:
            raise ConfigError("batch_threshold must be >= 1")
        self.engine = engine
        self.policy = policy
        self.batch_threshold = batch_threshold
        self.max_wait_ns = max_wait_ns
        self.freshness_sla_txns = freshness_sla_txns
        self.tick_ns = tick_ns
        self.freshness = FreshnessTracker(engine.db.oracle)
        self.stats = SchedulerStats()
        self.olap_queue: Deque[Request] = deque()
        self._oltp_queues: Dict[int, Deque[Request]] = {
            t: deque() for t in range(num_tenants)
        }
        self._rr_cursor = 0
        self._num_tenants = num_tenants
        #: Dispatch times of queued OLAP requests (set at enqueue).
        self._olap_enqueued_at: Dict[int, float] = {}
        #: Whether flushes may be answered from incremental views.
        self.ivm = ivm
        #: Observed mean per-query rescan time (ns), updated after every
        #: rescan flush; None until the first flush, which therefore
        #: always rescans (a deterministic cold-start calibration).
        self._rescan_query_ns: Optional[float] = None

    # ------------------------------------------------------------------
    # Queue entry points
    # ------------------------------------------------------------------
    def enqueue(self, request: Request, now: float) -> None:
        """Route one admitted request into its queue."""
        if request.kind == "olap":
            self._olap_enqueued_at[request.seq] = now
            self.olap_queue.append(request)
        elif request.kind == "oltp":
            self._oltp_queues[request.tenant].append(request)
        else:
            raise ConfigError(f"unknown request kind {request.kind!r}")

    def has_work(self) -> bool:
        return bool(self.olap_queue) or any(
            self._oltp_queues[t] for t in range(self._num_tenants)
        )

    def pending(self) -> int:
        """Total queued requests (for end-of-run conservation checks)."""
        return len(self.olap_queue) + sum(
            len(q) for q in self._oltp_queues.values()
        )

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def next_action(self, now: float, draining: bool = False) -> Optional[Action]:
        """The next dispatch at simulated time ``now``; None means idle.

        ``draining`` is set once no further arrivals can come — the
        batch trigger is then waived so queued queries flush instead of
        waiting for a threshold that will never be reached.
        """
        if self.engine.defrag_due():
            self.stats.defrag_dispatched += 1
            return Action("defrag")
        if self.olap_queue and (draining or self._olap_triggered(now)):
            inj = faults.active()
            if inj.enabled and inj.fire(fault_plan.SCHEDULER_STALL):
                # The dispatch tick is missed: the scheduler sleeps for
                # 1-3 ticks while OLAP queries back up behind it.
                ticks = inj.draw_int(fault_plan.SCHEDULER_STALL, 1, 3)
                self.stats.stalls += 1
                self.stats.stall_ticks += ticks
                return Action("stall", ticks=ticks)
            return self._pop_olap()
        action = self._pop_oltp()
        if action is not None:
            return action
        return None

    def next_deadline(self, now: float) -> Optional[float]:
        """When the max-wait trigger would fire for the queued OLAP head
        (None if nothing is queued) — lets the loop idle precisely."""
        if not self.olap_queue or self.policy == "naive":
            return None
        return self._head_deadline()

    def _head_deadline(self) -> float:
        return self._olap_enqueued_at[self.olap_queue[0].seq] + self.max_wait_ns

    def _olap_triggered(self, now: float) -> bool:
        if self.policy == "naive":
            return True
        # Test the very expression next_deadline() hands the loop to idle
        # to: in floats (t + w) - t < w can hold, so a "waited >= w" test
        # would not fire at the deadline and the clock would stop.
        if len(self.olap_queue) >= self.batch_threshold or now >= self._head_deadline():
            return True
        if self.policy == "freshness":
            return self.freshness.staleness() >= self.freshness_sla_txns
        return False

    def _pop_olap(self) -> Action:
        if self.policy == "naive":
            request = self.olap_queue.popleft()
            self._olap_enqueued_at.pop(request.seq, None)
            self.stats.olap_dispatched += 1
            self.stats.olap_batches += 1
            return Action("olap", [request])
        batch = list(self.olap_queue)
        self.olap_queue.clear()
        for request in batch:
            self._olap_enqueued_at.pop(request.seq, None)
        self.stats.olap_dispatched += len(batch)
        self.stats.olap_batches += 1
        self.stats.batched_queries += len(batch)
        return Action("olap", batch)

    # ------------------------------------------------------------------
    # Incremental-vs-rescan flush decision
    # ------------------------------------------------------------------
    def choose_olap_mode(self, names: List[str]) -> str:
        """Per-flush decision: ``"ivm"`` (apply deltas) or ``"rescan"``.

        Applies deltas when the estimated refresh cost — pending log
        records times the per-record fold cost, from
        :meth:`~repro.ivm.manager.IVMManager.estimate_refresh_time` —
        undercuts the observed rescan cost for the batch. The first
        flush always rescans (no observed rescan cost yet), which also
        calibrates the comparison from this run's own workload. Both
        inputs are simulated quantities, so the decision sequence is
        deterministic.
        """
        ivm = self.engine.ivm
        if not self.ivm or ivm is None or not ivm.covers(names):
            mode = "rescan"
        elif self._rescan_query_ns is None:
            mode = "rescan"
        else:
            estimated_ivm = ivm.estimate_refresh_time()
            estimated_rescan = self._rescan_query_ns * len(names)
            mode = "ivm" if estimated_ivm < estimated_rescan else "rescan"
        if mode == "ivm":
            self.stats.ivm_queries += len(names)
        field = f"{mode}_flushes"
        telemetry.count(self.stats, field, "serve.scheduler." + field)
        return mode

    def note_rescan(self, total_query_time: float, num_queries: int) -> None:
        """Record a rescan flush's mean per-query time (the cost baseline)."""
        if num_queries > 0:
            self._rescan_query_ns = total_query_time / num_queries

    def _pop_oltp(self) -> Optional[Action]:
        """Round-robin over tenants with queued transactions."""
        for offset in range(self._num_tenants):
            tenant = (self._rr_cursor + offset) % self._num_tenants
            queue = self._oltp_queues[tenant]
            if queue:
                self._rr_cursor = (tenant + 1) % self._num_tenants
                self.stats.oltp_dispatched += 1
                return Action("oltp", [queue.popleft()])
        return None

    def report(self) -> Dict[str, object]:
        controller = self.engine.controller.stats
        ivm_section: Dict[str, object] = {
            "enabled": bool(self.ivm and self.engine.ivm is not None),
            "ivm_flushes": self.stats.ivm_flushes,
            "rescan_flushes": self.stats.rescan_flushes,
            "ivm_queries": self.stats.ivm_queries,
        }
        if ivm_section["enabled"]:
            ivm_section["views"] = self.engine.ivm.report()["views"]
        return {
            "policy": self.policy,
            "ivm": ivm_section,
            "oltp_dispatched": self.stats.oltp_dispatched,
            "olap_dispatched": self.stats.olap_dispatched,
            "olap_batches": self.stats.olap_batches,
            "batched_queries": self.stats.batched_queries,
            "defrag_dispatched": self.stats.defrag_dispatched,
            "stalls": self.stats.stalls,
            "stall_ticks": self.stats.stall_ticks,
            "mode_batches": controller.mode_batches,
            "handovers": controller.handovers,
            "handovers_saved": controller.handovers_saved,
        }
