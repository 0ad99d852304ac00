"""Per-tenant SLO accounting for the serving layer.

Every completed request's **end-to-end** latency (queue wait plus
execution, in simulated ns) lands in a per-tenant histogram, split by
request class; violations are counted against per-class latency targets.
The accounting also enforces *conservation*: every submitted request
must be exactly one of rejected, completed, or disconnected, and nothing
may remain queued at the end of a run.  :meth:`SLOAccounting.errors`
returns the broken identities (CI asserts the list is empty), so a
scheduler or admission bug that loses a request is caught structurally
rather than by eyeballing throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigError
from repro.telemetry import registry as telemetry
from repro.telemetry.metrics import Histogram

__all__ = ["SLOTargets", "TenantSLO", "SLOAccounting", "quantiles"]


@dataclass(frozen=True)
class SLOTargets:
    """Per-class end-to-end latency targets (simulated ns)."""

    oltp_ns: float = 200_000.0
    olap_ns: float = 50_000_000.0

    def target_for(self, kind: str) -> float:
        if kind == "oltp":
            return self.oltp_ns
        if kind == "olap":
            return self.olap_ns
        raise ConfigError(f"unknown request kind {kind!r}")


@dataclass
class TenantSLO:
    """One tenant's latency distributions and outcome counters."""

    tenant: int
    oltp_latency: Histogram = field(default=None)  # type: ignore[assignment]
    olap_latency: Histogram = field(default=None)  # type: ignore[assignment]
    queue_wait: Histogram = field(default=None)  # type: ignore[assignment]
    submitted: int = 0
    rejected: int = 0
    completed: int = 0
    disconnected: int = 0
    aborted: int = 0
    violations: Dict[str, int] = field(
        default_factory=lambda: {"oltp": 0, "olap": 0}
    )

    def __post_init__(self) -> None:
        t = self.tenant
        if self.oltp_latency is None:
            self.oltp_latency = Histogram(f"serve.tenant{t}.oltp.latency_ns")
        if self.olap_latency is None:
            self.olap_latency = Histogram(f"serve.tenant{t}.olap.latency_ns")
        if self.queue_wait is None:
            self.queue_wait = Histogram(f"serve.tenant{t}.queue_wait_ns")

    def latency_for(self, kind: str) -> Histogram:
        return self.oltp_latency if kind == "oltp" else self.olap_latency


def quantiles(hist: Histogram) -> Dict[str, float]:
    """Standard summary of a latency histogram (shared report shape)."""
    return {
        "count": hist.count,
        "mean_ns": hist.mean,
        "p50_ns": hist.p50,
        "p95_ns": hist.p95,
        "p99_ns": hist.p99,
        "max_ns": hist.max,
    }


class SLOAccounting:
    """Records request outcomes and checks conservation identities."""

    def __init__(self, num_tenants: int, targets: SLOTargets) -> None:
        self.targets = targets
        self.tenants: Dict[int, TenantSLO] = {
            t: TenantSLO(tenant=t) for t in range(num_tenants)
        }

    # ------------------------------------------------------------------
    # Outcome recording
    # ------------------------------------------------------------------
    def on_submit(self, tenant: int) -> None:
        self.tenants[tenant].submitted += 1

    def on_reject(self, tenant: int) -> None:
        self.tenants[tenant].rejected += 1

    def on_complete(
        self,
        tenant: int,
        kind: str,
        latency_ns: float,
        wait_ns: float,
        aborted: bool = False,
    ) -> None:
        """One request finished; ``latency_ns`` is end-to-end (wait+exec).

        Aborted transactions still count as completions (the server did
        serve them — the client got its abort), but are tallied so abort
        storms are visible next to the latency numbers.
        """
        slo = self.tenants[tenant]
        slo.completed += 1
        if aborted:
            slo.aborted += 1
        slo.latency_for(kind).observe(latency_ns)
        slo.queue_wait.observe(wait_ns)
        if latency_ns > self.targets.target_for(kind):
            telemetry.tally(slo.violations, kind, f"serve.slo.violations.{kind}")
        tel = telemetry.active()
        if tel.enabled:
            tel.histogram(f"serve.tenant{tenant}.{kind}.latency_ns").observe(
                latency_ns
            )

    def on_complete_batch(
        self, completions: Sequence[Tuple[int, str, float, float]]
    ) -> None:
        """:meth:`on_complete` per ``(tenant, kind, latency_ns, wait_ns)``.

        Nothing in ``src/`` calls this; it stays importable only because
        ``benchmarks/e2e/layers.json`` names it as a trace target, and
        leaves together with that target (ROADMAP item 1).
        """
        for tenant, kind, latency_ns, wait_ns in completions:
            self.on_complete(tenant, kind, latency_ns, wait_ns)

    def on_disconnect(self, tenant: int) -> None:
        """The client vanished mid-transaction; no latency to record
        (nobody was waiting for the reply), but the request must still
        balance the books as an admitted-then-gone outcome."""
        self.tenants[tenant].disconnected += 1

    # ------------------------------------------------------------------
    # Conservation + report
    # ------------------------------------------------------------------
    def errors(self, residual_queued: int = 0) -> List[str]:
        """Broken conservation identities (empty means accounting holds)."""
        found: List[str] = []
        for t, slo in sorted(self.tenants.items()):
            admitted = slo.submitted - slo.rejected
            served = slo.completed + slo.disconnected
            if served != admitted:
                found.append(
                    f"tenant {t}: {admitted} admitted but {served} served "
                    f"({slo.completed} completed + {slo.disconnected} "
                    "disconnected)"
                )
            recorded = slo.oltp_latency.count + slo.olap_latency.count
            if recorded != slo.completed:
                found.append(
                    f"tenant {t}: {slo.completed} completions but "
                    f"{recorded} latency samples"
                )
        if residual_queued:
            found.append(
                f"{residual_queued} request(s) still queued at end of run"
            )
        return found

    def report(self) -> Dict[str, object]:
        """JSON-serializable per-tenant SLO summary."""
        out: Dict[str, object] = {}
        for t, slo in sorted(self.tenants.items()):
            out[str(t)] = {
                "submitted": slo.submitted,
                "rejected": slo.rejected,
                "completed": slo.completed,
                "disconnected": slo.disconnected,
                "aborted": slo.aborted,
                "violations": dict(slo.violations),
                "oltp": quantiles(slo.oltp_latency),
                "olap": quantiles(slo.olap_latency),
                "queue_wait": quantiles(slo.queue_wait),
            }
        return out
