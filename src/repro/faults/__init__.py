"""Deterministic fault injection and invariant checking.

ROADMAP calls for perturbing the engine's control paths — dropped or
duplicated launch requests, abort storms, defragmentation in the middle
of a query interval — and asserting that the engine's invariants hold
while telemetry counters expose every fault.

The subsystem has four parts:

* :mod:`repro.faults.plan` — :class:`FaultPlan`: a seed + per-hook rate
  table that decides, reproducibly, which hook firings inject a fault
  (no wall-clock randomness anywhere);
* :mod:`repro.faults.injector` — the process-global
  :class:`FaultInjector` switch, mirroring the telemetry registry: the
  instrumented layers consult :func:`repro.faults.injector.active` and
  pay only an attribute check when injection is off;
* :mod:`repro.faults.invariants` — :class:`InvariantChecker`: asserts
  controller protocol state, bank-lock discipline, MVCC chain/log
  agreement, and snapshot-bitmap/MVCC-log agreement at safe points;
* :mod:`repro.faults.sweep` — the one sweep grid (rate rows × seeds)
  behind ``python -m repro.experiments fault-sweep``: the ``mixed``,
  ``serve``, ``cluster`` (2PC atomicity) and ``crash`` (WAL recovery)
  workloads, one :class:`~repro.faults.sweep.SweepCell` per cell.

``invariants`` and ``sweep`` are intentionally *not* imported here: the
injector is imported by low-level layers (controller, OLTP engine) and
must stay free of dependencies on the engine stack.
"""

from __future__ import annotations

from repro.faults.injector import FaultInjector, active, deactivate, install
from repro.faults.plan import HOOKS, FaultPlan, FaultRates

__all__ = [
    "FaultPlan",
    "FaultRates",
    "HOOKS",
    "FaultInjector",
    "active",
    "install",
    "deactivate",
]
