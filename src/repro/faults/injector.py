"""The process-global fault-injection switch.

Mirrors :mod:`repro.telemetry.registry`: one injector is installed
process-wide, defaulting to a shared no-op whose :attr:`enabled` check is
all an un-faulted run pays. Instrumented layers follow one pattern::

    from repro.faults import injector as faults

    inj = faults.active()
    if inj.enabled and inj.fire(plan.DROP_LAUNCH):
        ...model the fault...

The injector counts every injected fault and every engine-side
detection per hook, so fault reports work with telemetry disabled; the
same count site mirrors each into ``faults.injected.<hook>`` /
``faults.detected.<hook>`` while a registry records.

This module must stay importable from the lowest layers (PIM controller,
OLTP engine); it depends only on the plan and telemetry modules.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.faults.plan import FaultPlan
from repro.telemetry import registry as telemetry

__all__ = ["FaultInjector", "NoopInjector", "active", "install", "deactivate"]


class FaultInjector:
    """Consults a :class:`FaultPlan` and accounts every fault event.

    ``pending_checks`` counts faults injected since the harness last ran
    the invariant checker; safe points (transaction/query boundaries)
    drain it via :meth:`take_pending_checks` so every injected fault is
    followed by a check at the next consistent state.
    """

    enabled = True

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.injected: Dict[str, int] = {}
        self.detected: Dict[str, int] = {}
        self.retries = 0
        self._pending_checks = 0

    # ------------------------------------------------------------------
    # Hook-point API
    # ------------------------------------------------------------------
    def fire(self, hook: str) -> bool:
        """One consultation of ``hook``; True means "inject here"."""
        if not self.plan.draw(hook):
            return False
        telemetry.tally(self.injected, hook, f"faults.injected.{hook}")
        self._pending_checks += 1
        return True

    def draw_int(self, hook: str, low: int, high: int) -> int:
        """Deterministic fault magnitude from the plan's hook stream."""
        return self.plan.draw_int(hook, low, high)

    def replay_fire(self, hook: str) -> None:
        """Re-apply the side effects of a fire whose draw already happened.

        The parallel plan pass consults :meth:`FaultPlan.draw` directly
        (advancing the RNG and the schedule); the merge pass then calls
        this at the same point of the sequential interleaving to apply
        the injection accounting without drawing again.
        """
        telemetry.tally(self.injected, hook, f"faults.injected.{hook}")
        self._pending_checks += 1

    def detect(self, hook: str) -> None:
        """The engine noticed (and survived) an injected fault."""
        telemetry.tally(self.detected, hook, f"faults.detected.{hook}")

    def retry(self, backoff_ns: float) -> None:
        """One bounded-retry attempt; ``backoff_ns`` is simulated wait."""
        telemetry.count(self, "retries", "faults.retries")
        tel = telemetry.active()
        if tel.enabled:
            tel.record_span("faults.retry_backoff", backoff_ns)

    # ------------------------------------------------------------------
    # Invariant-check scheduling
    # ------------------------------------------------------------------
    def take_pending_checks(self) -> int:
        """Faults injected since the last take; resets the count."""
        pending = self._pending_checks
        self._pending_checks = 0
        return pending


class NoopInjector:
    """The disabled injector: never fires, counts nothing."""

    enabled = False
    plan: Optional[FaultPlan] = None
    injected: Dict[str, int] = {}
    detected: Dict[str, int] = {}
    retries = 0

    def fire(self, hook: str) -> bool:
        """Never inject."""
        return False

    def draw_int(self, hook: str, low: int, high: int) -> int:
        """Smallest magnitude (never reached in practice)."""
        return low

    def replay_fire(self, hook: str) -> None:
        """Nothing to account."""

    def detect(self, hook: str) -> None:
        """Nothing to account."""

    def retry(self, backoff_ns: float) -> None:
        """Nothing to account."""

    def take_pending_checks(self) -> int:
        """Never any pending checks."""
        return 0


_NOOP = NoopInjector()
_active: object = _NOOP


def active():
    """The currently installed injector (real or no-op)."""
    return _active


def install(injector: FaultInjector) -> FaultInjector:
    """Install ``injector`` process-wide; returns it."""
    global _active
    _active = injector
    return injector


def deactivate() -> None:
    """Swap the no-op injector back in."""
    global _active
    _active = _NOOP
