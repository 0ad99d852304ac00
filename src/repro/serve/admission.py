"""Admission control for the serving layer: bounded queues + rate limits.

The admission controller is the first thing a request meets.  It enforces
two budgets per tenant and *rejects* rather than stalls when either is
exhausted (load shedding — a shed request costs the server nothing, an
unbounded queue costs everyone):

* a **bounded queue**: at most ``queue_depth`` requests of a tenant may
  be waiting or executing at once;
* a **token bucket**: sustained admission rate is capped at
  ``bucket_rate`` requests per simulated second with ``bucket_capacity``
  of burst headroom.

The :data:`~repro.faults.plan.QUEUE_OVERFLOW` fault hook models a
spurious overflow signal (e.g. a stale occupancy counter): the request
is shed even though capacity exists.  The accounting still balances —
a shed request is a rejection like any other, just with its own reason —
which is exactly what the SLO conservation checks verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigError
from repro.faults import injector as faults
from repro.faults import plan as fault_plan
from repro.telemetry import registry as telemetry
from repro.units import S

__all__ = ["Request", "TokenBucket", "AdmissionController", "AdmissionStats"]

#: Rejection reasons (keys of :attr:`AdmissionStats.rejected_by_reason`).
REASON_QUEUE_FULL = "queue_full"
REASON_RATE_LIMITED = "rate_limited"
REASON_FAULT = "spurious_overflow"


@dataclass
class Request:
    """One client request travelling through the serving layer."""

    seq: int
    tenant: int
    kind: str  # "oltp" | "olap"
    payload: object
    #: Simulated arrival time (ns) — queue wait and end-to-end latency
    #: are measured from here.
    submitted_at: float
    #: Committed-transaction horizon when the request arrived; the
    #: freshness tracker reports OLAP snapshot lag against this.
    arrival_horizon: int = 0


@dataclass
class AdmissionStats:
    """Aggregate admission counters (also kept per tenant)."""

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    rejected_by_reason: Dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejected += 1
        self.rejected_by_reason[reason] = self.rejected_by_reason.get(reason, 0) + 1


class TokenBucket:
    """Token bucket over simulated time.

    ``rate`` is in requests per simulated second; ``capacity`` is the
    burst size.  ``rate=0`` disables the limiter (always admits).
    """

    def __init__(self, rate: float, capacity: float) -> None:
        if rate < 0 or capacity <= 0:
            raise ConfigError("token bucket needs rate >= 0 and capacity > 0")
        self.rate = rate
        self.capacity = float(capacity)
        self.tokens = float(capacity)
        self._last_refill = 0.0

    def try_take(self, now: float) -> bool:
        """Admit one request at simulated time ``now`` if a token exists."""
        if self.rate == 0:
            return True
        if now > self._last_refill:
            self.tokens = min(
                self.capacity,
                self.tokens + (now - self._last_refill) * self.rate / S,
            )
            self._last_refill = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Per-tenant bounded occupancy + token-bucket rate limiting.

    Occupancy counts requests admitted but not yet completed (queued
    *or* executing), so a slow tenant cannot park unbounded work behind
    the scheduler; the loop calls :meth:`release` when a request
    finishes.
    """

    def __init__(
        self,
        num_tenants: int,
        queue_depth: int = 16,
        bucket_rate: float = 0.0,
        bucket_capacity: float = 8.0,
    ) -> None:
        if num_tenants < 1:
            raise ConfigError("admission needs at least one tenant")
        if queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")
        self.queue_depth = queue_depth
        self.occupancy: Dict[int, int] = {t: 0 for t in range(num_tenants)}
        self.buckets: Dict[int, TokenBucket] = {
            t: TokenBucket(bucket_rate, bucket_capacity)
            for t in range(num_tenants)
        }
        self.stats = AdmissionStats()
        self.tenant_stats: Dict[int, AdmissionStats] = {
            t: AdmissionStats() for t in range(num_tenants)
        }

    def admit(self, request: Request, now: float) -> bool:
        """Admit or shed ``request``; True means admitted."""
        tenant = request.tenant
        self.stats.submitted += 1
        self.tenant_stats[tenant].submitted += 1
        reason = None
        inj = faults.active()
        if inj.enabled and inj.fire(fault_plan.QUEUE_OVERFLOW):
            # A stale occupancy read reports the queue full; the request
            # is shed spuriously. Shedding is the *graceful* outcome —
            # the conservation checks confirm nothing is lost or stuck.
            inj.detect(fault_plan.QUEUE_OVERFLOW)
            reason = REASON_FAULT
        elif self.occupancy[tenant] >= self.queue_depth:
            reason = REASON_QUEUE_FULL
        elif not self.buckets[tenant].try_take(now):
            reason = REASON_RATE_LIMITED
        if reason is not None:
            self.stats.rejected += 1
            telemetry.tally(
                self.stats.rejected_by_reason, reason, f"serve.admission.rejected.{reason}"
            )
            self.tenant_stats[tenant].reject(reason)
            return False
        self.occupancy[tenant] += 1
        telemetry.count(self.stats, "admitted", "serve.admission.admitted")
        self.tenant_stats[tenant].admitted += 1
        return True

    def release(self, tenant: int) -> None:
        """One of ``tenant``'s admitted requests finished."""
        if self.occupancy[tenant] <= 0:
            raise ConfigError(
                f"release without admission for tenant {tenant} "
                "(accounting bug)"
            )
        self.occupancy[tenant] -= 1

    @property
    def total_occupancy(self) -> int:
        """Admitted-but-unfinished requests across all tenants."""
        return sum(self.occupancy.values())
