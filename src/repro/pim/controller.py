"""Memory controller models (§6.1, Fig. 7a).

Two controller variants are modelled:

* :class:`OriginalController` — the commercial general-purpose PIM
  architecture: to offload a task the CPU messages every PIM unit
  individually and then polls each until done (tens of microseconds across
  a server, §2.1), and DRAM banks stay locked for the whole offload.
* :class:`PushTapController` — the paper's extension: a *scheduler*
  recognizes launch/poll requests disguised as accesses to a special
  physical address and broadcasts to the units itself; a *polling module*
  polls the units and answers the CPU's poll read. Bank control is handed
  over only for ``LS``/``Defragment`` operations, so compute phases run
  concurrently with normal CPU access.

Both variants expose the same interface, so the two-phase executor
(:mod:`repro.pim.executor`) can run on either and Fig. 12b falls out of
swapping the controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.config import SystemConfig
from repro.errors import ProtocolError
from repro.faults import injector as faults
from repro.faults import plan as fault_plan
from repro.pim.pim_unit import PIMUnit
from repro.pim.requests import LaunchRequest, decode_launch
from repro.telemetry import registry as telemetry

__all__ = [
    "ControlCost",
    "ControllerStats",
    "OriginalController",
    "PushTapController",
    "SPECIAL_ADDRESS",
]

#: Default special physical address chosen from the unused DRAM range
#: (preconfigured at boot, §6.1).
SPECIAL_ADDRESS = 0xFFFF_F000


@dataclass(frozen=True)
class ControlCost:
    """Cost of one control interaction with the PIM units.

    ``cpu_time`` is time the CPU itself spends issuing/receiving control
    traffic; ``handover_time`` is the bank-control mode switch paid before
    PIM units may touch DRAM (zero for WRAM-only compute phases under
    PUSHtap).
    """

    cpu_time: float
    handover_time: float

    @property
    def total(self) -> float:
        """Total control latency on the critical path."""
        return self.cpu_time + self.handover_time


@dataclass
class ControllerStats:
    """Counters accumulated by a controller."""

    launches: int = 0
    polls: int = 0
    handovers: int = 0
    control_time: float = 0.0
    #: Mode batches opened via :meth:`_ControllerBase.begin_mode_batch`.
    mode_batches: int = 0
    #: Per-launch bank handovers skipped because a mode batch held the
    #: banks in PIM mode already (the amortisation the serve scheduler
    #: exploits when it batches OLAP queries).
    handovers_saved: int = 0


class _ControllerBase:
    """Shared bookkeeping of both controller variants."""

    #: Whether DRAM banks stay locked while PIM units compute.
    locks_banks_during_compute: bool = True

    def __init__(self, config: SystemConfig, units: Sequence[PIMUnit]) -> None:
        self.config = config
        self.units: List[PIMUnit] = list(units)
        self.stats = ControllerStats()
        #: Whether the most recent launch() actually reached the units.
        #: Fault injection can make a launch vanish (dropped write) or
        #: arrive garbled; the caller must then retry the launch.
        self.last_launch_accepted = True
        #: Hook name of the fault that rejected the last launch, if any.
        self.last_launch_fault: Optional[str] = None
        #: Whether the most recent poll() reported all units done. Fault
        #: injection can deliver "not done" a few extra times.
        self.last_poll_done = True
        self._not_done_polls = 0
        #: Whether the units' banks are handed over: each bank's ``locked``.
        self.banks_locked = False
        for unit in self.units:
            unit.bank.controller = self

    @property
    def num_units(self) -> int:
        """Number of PIM units under this controller."""
        return len(self.units)

    @property
    def num_ranks(self) -> int:
        """Number of PIM ranks under this controller."""
        units_per_rank = self.config.pim.units_per_rank
        return max(1, -(-self.num_units // units_per_rank))

    def begin_offload(self) -> ControlCost:
        """Start one offload (a whole multi-phase operation).

        The original architecture pays its bank handover here, once;
        PUSHtap hands over per DRAM-touching launch instead, so the base
        implementation is free.
        """
        return ControlCost(0.0, 0.0)

    # ------------------------------------------------------------------
    # Mode-switch batching (serve-layer scheduler hook)
    # ------------------------------------------------------------------
    #: Whether a mode batch currently holds the banks in PIM mode.
    mode_batch_active: bool = False

    def begin_mode_batch(self) -> ControlCost:
        """Hold PIM-mode bank control open across several offloads.

        The serve scheduler opens a mode batch before running a queued
        batch of OLAP queries: the banks switch into PIM mode once, the
        queries' DRAM-touching launches inside the batch skip the
        per-launch handover, and :meth:`end_mode_batch` switches back.
        The base implementation is a no-op (subclasses model the cost).
        """
        return ControlCost(0.0, 0.0)

    def end_mode_batch(self) -> ControlCost:
        """Close the mode batch and return bank control to the CPU."""
        return ControlCost(0.0, 0.0)

    def end_offload(self) -> ControlCost:
        """Finish one offload; releases banks held across its phases."""
        return ControlCost(0.0, 0.0)

    def launch(self, request: LaunchRequest) -> ControlCost:
        """Issue a launch; returns its control cost."""
        raise NotImplementedError

    def poll(self) -> ControlCost:
        """Poll until all units are finished; returns its control cost."""
        raise NotImplementedError

    def finish(self, request: LaunchRequest) -> None:
        """Mark the operation finished; release banks when appropriate."""
        self.banks_locked = False

    def _record(self, kind: str, cost: ControlCost) -> None:
        """Count one control interaction in ``stats.<kind>`` (and counter
        ``pim.controller.<kind>``) and record its ``pim.control`` span."""
        telemetry.count(self.stats, kind, "pim.controller." + kind)
        tel = telemetry.active()
        if tel.enabled and cost.total:
            tel.record_span(
                "pim.control", cost.total, {"kind": kind, "cpu_time": cost.cpu_time}
            )

    # ------------------------------------------------------------------
    # Fault injection (control-path anomalies)
    # ------------------------------------------------------------------
    def _injected_launch_fault(self, request: LaunchRequest) -> Optional[str]:
        """Whether this launch is lost in flight; returns the hook name.

        A *dropped* launch never reaches the scheduler at all; a
        *garbled* one arrives with a corrupted Fig. 7b encoding, which
        the scheduler rejects (detected at the controller). Either way
        the operation is not armed and the CPU must re-issue it.
        """
        inj = faults.active()
        if not inj.enabled:
            return None
        if inj.fire(fault_plan.DROP_LAUNCH):
            return fault_plan.DROP_LAUNCH
        if inj.fire(fault_plan.GARBLE_LAUNCH):
            # Corrupt the op-type byte and confirm the scheduler's decode
            # path rejects the payload — the detection is real, not assumed.
            payload = bytearray(request.encode())
            payload[0] ^= 0xFF
            try:
                decode_launch(bytes(payload))
            except ProtocolError:
                inj.detect(fault_plan.GARBLE_LAUNCH)
            return fault_plan.GARBLE_LAUNCH
        return None

    def _poll_reports_done(self) -> bool:
        """Consult fault injection: does this poll report all-done?

        A :data:`~repro.faults.plan.POLL_NOT_DONE` fault makes the
        polling module answer "not done" for 1–3 extra polls, forcing
        the CPU into its retry-with-backoff loop.
        """
        if self._not_done_polls > 0:
            self._not_done_polls -= 1
            return False
        inj = faults.active()
        if inj.enabled and inj.fire(fault_plan.POLL_NOT_DONE):
            self._not_done_polls = inj.draw_int(fault_plan.POLL_NOT_DONE, 1, 3) - 1
            return False
        return True


class OriginalController(_ControllerBase):
    """The unmodified general-purpose PIM controller (§2.1).

    Offloading hands over every rank's banks *once*, messages every unit
    per launch, and keeps the banks locked until the whole offload ends,
    regardless of whether the units are loading from DRAM or computing
    from WRAM (§2.1). Per-phase launches therefore pay messaging only —
    the mode switch is not re-charged phase by phase.
    """

    locks_banks_during_compute = True

    def __init__(self, config: SystemConfig, units: Sequence[PIMUnit]) -> None:
        super().__init__(config, units)
        self._offload_active = False

    def begin_mode_batch(self) -> ControlCost:
        """Open one offload window spanning several operations.

        The original architecture already locks banks per offload;
        batching maps onto holding that offload open, so consecutive
        operations inside the batch skip their per-offload handover.
        """
        self.mode_batch_active = True
        cost = self.begin_offload()
        self._record("mode_batches", cost)
        return cost

    def end_mode_batch(self) -> ControlCost:
        """Release the batch's offload window (and the banks)."""
        self.mode_batch_active = False
        return self.end_offload()

    def begin_offload(self) -> ControlCost:
        """Hand over bank control for the whole offload (idempotent)."""
        if self._offload_active:
            if self.mode_batch_active:
                # This operation's handover is absorbed by the batch.
                telemetry.count(
                    self.stats, "handovers_saved", "pim.controller.handovers_saved"
                )
            return ControlCost(0.0, 0.0)
        self._offload_active = True
        # Handover is paid per rank, serially (0.2 us per rank, §7.1).
        handover = self.config.mode_switch_latency * self.num_ranks
        self.banks_locked = True
        self.stats.control_time += handover
        cost = ControlCost(0.0, handover)
        self._record("handovers", cost)
        return cost

    def end_offload(self) -> ControlCost:
        """Return bank control to the CPU after the offload's last poll.

        While a mode batch is open the banks stay handed over — the
        batch (not the individual operation) owns the offload window.
        """
        if not self._offload_active or self.mode_batch_active:
            return ControlCost(0.0, 0.0)
        self._offload_active = False
        self.banks_locked = False
        return ControlCost(0.0, 0.0)

    def launch(self, request: LaunchRequest) -> ControlCost:
        # A bare launch outside an explicit offload opens one, so the
        # handover is still charged (exactly once) and banks lock.
        begin = self.begin_offload()
        cpu_time = self.num_units * self.config.unit_message_latency
        self.last_launch_fault = self._injected_launch_fault(request)
        self.last_launch_accepted = self.last_launch_fault is None
        if self.last_launch_accepted:
            inj = faults.active()
            if inj.enabled and inj.fire(fault_plan.DUPLICATE_LAUNCH):
                # One unit receives its message twice; re-delivery to an
                # idle unit is detected and ignored, costing one message.
                inj.detect(fault_plan.DUPLICATE_LAUNCH)
                cpu_time += self.config.unit_message_latency
        self.stats.control_time += cpu_time
        cost = ControlCost(cpu_time, begin.handover_time)
        self._record("launches", cost)
        return cost

    def poll(self) -> ControlCost:
        cpu_time = self.num_units * self.config.unit_message_latency
        self.last_poll_done = self._poll_reports_done()
        self.stats.control_time += cpu_time
        cost = ControlCost(cpu_time, 0.0)
        self._record("polls", cost)
        return cost

    def finish(self, request: LaunchRequest) -> None:
        """Phase end: banks stay locked until :meth:`end_offload`."""
        if not self._offload_active:
            self.banks_locked = False


class PushTapController(_ControllerBase):
    """PUSHtap's extended controller: scheduler + polling module (§6.1)."""

    locks_banks_during_compute = False

    def __init__(
        self,
        config: SystemConfig,
        units: Sequence[PIMUnit],
        special_address: int = SPECIAL_ADDRESS,
    ) -> None:
        super().__init__(config, units)
        self.special_address = special_address
        self._pending: Optional[LaunchRequest] = None

    # ------------------------------------------------------------------
    # The disguised-memory-access interface
    # ------------------------------------------------------------------
    def is_special(self, addr: int) -> bool:
        """Whether an access address targets the control interface."""
        return addr == self.special_address

    def memory_write(self, addr: int, payload: bytes) -> Optional[ControlCost]:
        """A CPU memory write; launches if it hits the special address."""
        if not self.is_special(addr):
            return None
        return self.launch(decode_launch(payload))

    def memory_read(self, addr: int) -> Optional[ControlCost]:
        """A CPU memory read; polls if it hits the special address."""
        if not self.is_special(addr):
            return None
        return self.poll()

    # ------------------------------------------------------------------
    # Mode-switch batching (serve-layer scheduler hook)
    # ------------------------------------------------------------------
    def begin_mode_batch(self) -> ControlCost:
        """Switch the banks into PIM mode once for a batch of offloads.

        Inside the batch, ``LS``/``Defragment`` launches find the banks
        already handed over and skip the per-launch mode switch — the
        amortisation the serve scheduler's ``batched`` policy buys.
        Idempotent while a batch is already open.
        """
        if self.mode_batch_active:
            return ControlCost(0.0, 0.0)
        self.mode_batch_active = True
        handover = self.config.mode_switch_latency * self.num_ranks
        self.banks_locked = True
        telemetry.count(self.stats, "handovers", "pim.controller.handovers")
        self.stats.control_time += handover
        cost = ControlCost(0.0, handover)
        self._record("mode_batches", cost)
        return cost

    def end_mode_batch(self) -> ControlCost:
        """Return bank control to the CPU (free, like a normal finish)."""
        if not self.mode_batch_active:
            return ControlCost(0.0, 0.0)
        self.mode_batch_active = False
        self.banks_locked = False
        return ControlCost(0.0, 0.0)

    # ------------------------------------------------------------------
    # Scheduler / polling module behaviour
    # ------------------------------------------------------------------
    def launch(self, request: LaunchRequest) -> ControlCost:
        """Scheduler path: one request, controller-side broadcast.

        Bank control is handed over only when the operation accesses DRAM
        (``LS``/``Defragment``); compute operations leave banks available
        to the CPU.
        """
        if self._pending is not None:
            raise ProtocolError("launch while a previous operation is still pending")
        cpu_time = self.config.controller_request_latency
        self.last_launch_fault = self._injected_launch_fault(request)
        self.last_launch_accepted = self.last_launch_fault is None
        if not self.last_launch_accepted:
            # The disguised write was lost or rejected: nothing is armed,
            # no banks are handed over; the CPU still paid the access.
            self.stats.control_time += cpu_time
            cost = ControlCost(cpu_time, 0.0)
            self._record("launches", cost)
            return cost
        handover = 0.0
        if request.op.needs_bank_handover:
            if self.mode_batch_active:
                # The open mode batch already holds the banks in PIM
                # mode; this launch's mode switch is amortised away.
                telemetry.count(
                    self.stats, "handovers_saved", "pim.controller.handovers_saved"
                )
            else:
                handover = self.config.mode_switch_latency * self.num_ranks
                self.banks_locked = True
                telemetry.count(self.stats, "handovers", "pim.controller.handovers")
        self._pending = request
        inj = faults.active()
        if inj.enabled and inj.fire(fault_plan.DUPLICATE_LAUNCH):
            # The scheduler sees the same disguised write twice; the
            # duplicate matches the pending request and is dropped —
            # exactly the lost/duplicated-pending check the invariant
            # checker asserts — at the cost of one more request.
            inj.detect(fault_plan.DUPLICATE_LAUNCH)
            cpu_time += self.config.controller_request_latency
        self.stats.control_time += cpu_time + handover
        cost = ControlCost(cpu_time, handover)
        self._record("launches", cost)
        return cost

    def poll(self) -> ControlCost:
        """Polling-module path: one disguised read answers the CPU."""
        cpu_time = self.config.controller_request_latency
        self.last_poll_done = self._poll_reports_done()
        self.stats.control_time += cpu_time
        cost = ControlCost(cpu_time, 0.0)
        self._record("polls", cost)
        return cost

    def finish(self, request: LaunchRequest) -> None:
        """Complete the pending operation and release any locked banks.

        ``request`` must be the *actual* pending request, not merely one
        with the same op type — finishing a different request of the same
        type is a protocol violation and raises :class:`ProtocolError`.
        """
        # Compare canonical encodings: omitted fields default to 0, so a
        # decoded request equals the literal it was encoded from. (The
        # pending object itself needs no encoding to equal itself.)
        if self._pending is None or (
            self._pending is not request and self._pending.encode() != request.encode()
        ):
            raise ProtocolError("finish does not match the pending request")
        self._pending = None
        if request.op.needs_bank_handover and not self.mode_batch_active:
            self.banks_locked = False

    @property
    def pending(self) -> Optional[LaunchRequest]:
        """The operation currently executing, if any."""
        return self._pending
