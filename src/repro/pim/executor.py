"""Two-phase OLAP execution (§6.2).

An OLAP operation is split into alternating *load* and *compute* phases,
chunked by half the WRAM (the other half is the units' operating memory).
During a load phase bank control belongs to the PIM units and normal CPU
access is blocked; during a compute phase PUSHtap's controller leaves the
banks to the CPU, whereas the original architecture keeps them locked for
the whole offload.

:class:`TwoPhaseExecutor` orchestrates the phases over any
:class:`ChunkedOperation` and produces an :class:`ExecutionResult` whose
``cpu_blocked_time`` is exactly the quantity the paper's real-time-OLTP
argument is about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Protocol, Sequence, Tuple

from repro.errors import QueryError
from repro.faults import injector as faults
from repro.faults import plan as fault_plan
from repro.pim.controller import ControlCost, _ControllerBase
from repro.pim.pim_unit import PIMUnit
from repro.pim.requests import LaunchRequest, OpType
from repro.telemetry import registry as telemetry

__all__ = [
    "ChunkedOperation",
    "PhaseTrace",
    "ExecutionResult",
    "TwoPhaseExecutor",
    "MAX_FAULT_RETRIES",
    "RETRY_BACKOFF_BASE_NS",
]

#: Bounded retries per control interaction before giving up on a query.
MAX_FAULT_RETRIES = 8
#: First retry backoff (simulated ns); doubles per attempt.
RETRY_BACKOFF_BASE_NS = 100.0


class ChunkedOperation(Protocol):
    """Work split into WRAM-sized chunks per PIM unit.

    A phase is one launch request that every participating unit executes
    at once, so ``load`` / ``compute`` take the chunk alone: an
    implementation moves the real bytes of *all* its units for that phase
    and returns each unit's modelled time, in
    :meth:`participating_units` order.
    """

    def num_chunks(self) -> int:
        """Number of load/compute phase pairs (max across units)."""
        ...

    def participating_units(self) -> Sequence[PIMUnit]:
        """Units involved in this operation."""
        ...

    def load_request(self, chunk: int) -> LaunchRequest:
        """The LS launch request for phase ``chunk``."""
        ...

    def compute_request(self, chunk: int) -> LaunchRequest:
        """The compute launch request for phase ``chunk``."""
        ...

    def load(self, chunk: int) -> Sequence[float]:
        """Run the load phase on every unit; returns unit-local times."""
        ...

    def compute(self, chunk: int) -> Sequence[float]:
        """Run the compute phase on every unit; returns unit-local times."""
        ...

    def work(self) -> Tuple[int, int]:
        """DRAM bytes moved and elements processed by all the phases."""
        ...


@dataclass(frozen=True)
class PhaseTrace:
    """Timing of one load+compute phase pair."""

    chunk: int
    control_time: float
    load_time: float
    compute_time: float


@dataclass
class ExecutionResult:
    """Aggregate timing of one two-phase OLAP operation."""

    total_time: float = 0.0
    cpu_blocked_time: float = 0.0
    load_time: float = 0.0
    compute_time: float = 0.0
    control_time: float = 0.0
    phases: int = 0
    traces: List[PhaseTrace] = field(default_factory=list)
    #: DRAM bytes moved (read + written) by the participating units and elements
    #: pushed through their compute pipelines (:meth:`ChunkedOperation.work`).
    dram_bytes: int = 0
    elements: int = 0

    @property
    def control_fraction(self) -> float:
        """Control (mode-switch + messaging) share of total time."""
        return self.control_time / self.total_time if self.total_time else 0.0

    def merge(self, other: "ExecutionResult") -> "ExecutionResult":
        """Concatenate two results (serial composition)."""
        return ExecutionResult(
            total_time=self.total_time + other.total_time,
            cpu_blocked_time=self.cpu_blocked_time + other.cpu_blocked_time,
            load_time=self.load_time + other.load_time,
            compute_time=self.compute_time + other.compute_time,
            control_time=self.control_time + other.control_time,
            phases=self.phases + other.phases,
            traces=self.traces + other.traces,
            dram_bytes=self.dram_bytes + other.dram_bytes,
            elements=self.elements + other.elements,
        )


class TwoPhaseExecutor:
    """Runs chunked operations under a given memory controller."""

    def __init__(self, controller: _ControllerBase) -> None:
        self.controller = controller

    # ------------------------------------------------------------------
    # Fault-tolerant control interactions
    # ------------------------------------------------------------------
    def _launch_with_retry(self, request: LaunchRequest) -> ControlCost:
        """Launch ``request``, re-issuing after transient launch faults.

        Dropped or garbled launches (fault injection) leave the
        controller un-armed; the CPU detects this, waits an exponential
        backoff in *simulated* time, and re-issues — all charged to the
        query's control time. Exhausting the retry budget raises
        :class:`~repro.errors.QueryError`.
        """
        cpu_time = 0.0
        handover = 0.0
        for attempt in range(MAX_FAULT_RETRIES + 1):
            cost = self.controller.launch(request)
            cpu_time += cost.cpu_time
            handover += cost.handover_time
            if self.controller.last_launch_accepted:
                return ControlCost(cpu_time, handover)
            inj = faults.active()
            inj.detect(self.controller.last_launch_fault or fault_plan.DROP_LAUNCH)
            backoff = RETRY_BACKOFF_BASE_NS * (2.0 ** attempt)
            inj.retry(backoff)
            cpu_time += backoff
        raise QueryError(
            f"{request.op.name} launch not accepted after "
            f"{MAX_FAULT_RETRIES} retries (injected control faults)"
        )

    def _poll_with_retry(self) -> ControlCost:
        """Poll until the controller reports done, with bounded backoff."""
        cpu_time = 0.0
        for attempt in range(MAX_FAULT_RETRIES + 1):
            cost = self.controller.poll()
            cpu_time += cost.cpu_time
            if self.controller.last_poll_done:
                return ControlCost(cpu_time, 0.0)
            inj = faults.active()
            inj.detect(fault_plan.POLL_NOT_DONE)
            backoff = RETRY_BACKOFF_BASE_NS * (2.0 ** attempt)
            inj.retry(backoff)
            cpu_time += backoff
        raise QueryError(
            f"poll still not done after {MAX_FAULT_RETRIES} retries "
            "(injected control faults)"
        )

    def execute(self, op: ChunkedOperation) -> ExecutionResult:
        """Run all phases of ``op``; returns aggregate timing.

        Per-phase wall time is the slowest unit (units run in parallel);
        CPU-blocked time counts control traffic and load phases always,
        and compute phases only when the controller keeps banks locked
        (the original architecture).
        """
        units = list(op.participating_units())
        if not units:
            raise QueryError("chunked operation has no participating units")
        result = ExecutionResult()
        blocking_compute = self.controller.locks_banks_during_compute
        tel = telemetry.active()
        # The controller records its own pim.control spans as launches and
        # polls happen, so phase spans recorded here in execution order
        # interleave with them on one coherent timeline.
        # One offload spans every phase: the original architecture pays
        # its bank handover here (once) and holds the banks throughout.
        begin_cost = self.controller.begin_offload()
        result.total_time += begin_cost.total
        result.control_time += begin_cost.total
        result.cpu_blocked_time += begin_cost.total
        inj = faults.active()
        for chunk in range(op.num_chunks()):
            load_req = op.load_request(chunk)
            if load_req.op != OpType.LS and load_req.op != OpType.DEFRAGMENT:
                raise QueryError(f"load phase must be LS/Defragment, got {load_req.op.name}")
            launch_cost = self._launch_with_retry(load_req)
            unit_load_times = self._run_phase(op.load, chunk, load_req)
            load_time = max(unit_load_times)
            self._record_phase(
                tel, "load", load_time, chunk, load_req.op.name, units, unit_load_times
            )
            poll_cost = self._poll_with_retry()

            compute_req = op.compute_request(chunk)
            if compute_req.op.needs_bank_handover:
                raise QueryError(
                    f"compute phase must be WRAM-only, got {compute_req.op.name}"
                )
            op_name = compute_req.op.name
            c_launch_cost = self._launch_with_retry(compute_req)
            unit_compute_times = self._run_phase(op.compute, chunk, compute_req)
            compute_time = max(unit_compute_times)
            self._record_phase(
                tel, "compute", compute_time, chunk, op_name, units, unit_compute_times
            )
            c_poll_cost = self._poll_with_retry()

            reissue_control = 0.0
            reissue_compute = 0.0
            if inj.enabled and inj.fire(fault_plan.CHUNK_REISSUE):
                # The WRAM-resident chunk is re-issued: the units recompute
                # the same staged data (results are overwritten, not
                # accumulated — the chunk stays loaded), so only the extra
                # launch/poll round and compute time are charged.
                inj.detect(fault_plan.CHUNK_REISSUE)
                r_launch = self._launch_with_retry(compute_req)
                self.controller.finish(compute_req)
                if tel.enabled:
                    tel.record_span(
                        "pim.phase.compute",
                        compute_time,
                        {"chunk": chunk, "op": op_name, "reissue": True},
                    )
                r_poll = self._poll_with_retry()
                reissue_control = r_launch.total + r_poll.total
                reissue_compute = compute_time

            control = (
                launch_cost.total
                + poll_cost.total
                + c_launch_cost.total
                + c_poll_cost.total
                + reissue_control
            )
            compute_total = compute_time + reissue_compute
            result.total_time += control + load_time + compute_total
            result.load_time += load_time
            result.compute_time += compute_total
            result.control_time += control
            blocked = launch_cost.total + load_time + poll_cost.cpu_time
            blocked += c_launch_cost.total + c_poll_cost.cpu_time
            blocked += reissue_control
            if blocking_compute:
                blocked += compute_total
            result.cpu_blocked_time += blocked
            result.phases += 1
            result.traces.append(PhaseTrace(chunk, control, load_time, compute_total))
            if tel.enabled:
                tel.counter("pim.executor.phases").inc()
            if inj.enabled and inj.fire(fault_plan.INTERRUPT_OFFLOAD):
                # The offload is interrupted at the chunk boundary (e.g. a
                # higher-priority CPU burst): bank control returns to the
                # CPU and the offload is re-opened, re-paying any per-
                # offload handover the controller charges.
                inj.detect(fault_plan.INTERRUPT_OFFLOAD)
                stop_cost = self.controller.end_offload()
                resume_cost = self.controller.begin_offload()
                extra = stop_cost.total + resume_cost.total
                result.total_time += extra
                result.control_time += extra
                result.cpu_blocked_time += extra
        end_cost = self.controller.end_offload()
        result.total_time += end_cost.total
        result.control_time += end_cost.total
        result.cpu_blocked_time += end_cost.total
        result.dram_bytes, result.elements = op.work()
        if tel.enabled:
            tel.counter("pim.executor.offloads").inc()
        return result

    def _run_phase(
        self, run: Callable[[int], Sequence[float]], chunk: int, request: LaunchRequest
    ) -> Sequence[float]:
        """``run(chunk)`` while ``request`` is pending, then finish it.

        A phase that raises leaves no pending request and no open offload
        behind: the request is finished and the offload ended before the
        error propagates, so the engine can run its next operation.
        """
        try:
            unit_times = run(chunk)
        except BaseException:
            self.controller.finish(request)
            self.controller.end_offload()
            raise
        self.controller.finish(request)
        return unit_times

    @staticmethod
    def _record_phase(tel, kind, duration, chunk, op_name, units, unit_times) -> None:
        """While ``tel`` records, one ``pim.phase.<kind>`` span, then (with
        the registry's ``roofline`` flag, which the profiler sets) its
        per-unit lanes.

        Units run concurrently, so each lane starts with the phase, lasts
        its own time and names the phase as parent; explicit starts keep
        the serial cursor untouched.
        """
        if not tel.enabled:
            return
        parent = len(tel.spans)
        phase = tel.record_span(f"pim.phase.{kind}", duration, {"chunk": chunk, "op": op_name})
        if not tel.roofline:
            return
        for unit, unit_time in zip(units, unit_times):
            if unit_time <= 0.0:
                continue
            tel.record_span(
                f"pim.unit.{kind}",
                unit_time,
                {
                    "chunk": chunk,
                    "unit": unit.unit_id,
                    "device": unit.bank.device.index,
                    "bank": unit.bank.index,
                },
                start=phase.start,
                parent=parent,
            )
