"""Deterministic simulated-time two-phase commit across shard engines.

The coordinator drives the classic presumed-abort protocol over the
participant interface :class:`~repro.oltp.engine.OLTPEngine` grew for
the cluster: ``prepare`` runs a sub-transaction's body and hardens its
writes behind a prepare record (charged through the same §6.3
flush+barrier model as a single-phase commit), the participant's write
locks stay held across the phases, and ``commit_prepared`` /
``abort_prepared`` resolve the vote. A commit decision costs each
participant one extra flushed line (the decision record) — the
per-participant overhead a cross-shard transaction pays over a local
one — while an abort flushes nothing (presumed abort).

Interconnect traffic is modelled as a fixed per-message latency; a
coordinator that goes silent (the injected coordinator crash) sends no
decision at all, and every prepared participant resolves by timing out
into the presumed abort. All three cluster fault hooks
(:data:`~repro.faults.plan.TWOPC_LOST_PREPARE`,
:data:`~repro.faults.plan.TWOPC_PARTICIPANT_TIMEOUT`,
:data:`~repro.faults.plan.TWOPC_COORDINATOR_CRASH`) therefore resolve
to a deterministic *global* abort: no shard ever commits a transaction
another shard aborted, the invariant :meth:`TwoPhaseCommit.
atomicity_violations` checks over the outcome log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import TransactionError, on_shard
from repro.faults import injector as faults
from repro.faults import plan as fault_plan
from repro.oltp.engine import TxnContext, TxnResult
from repro.telemetry import registry as telemetry

__all__ = [
    "TwoPhaseOutcome",
    "TwoPhaseCommit",
    "TwoPCDecision",
    "plan_twopc_decision",
]


@dataclass(frozen=True)
class TwoPCDecision:
    """A fault-plan consultation for one cross-shard transaction.

    The parallel plan pass draws the same hook stream the sequential
    coordinator would (and in the same order), without executing any
    participant — single-shard TPC-C sub-transactions always vote yes,
    which the workers assert.
    """

    order: tuple
    #: Per-shard phase-1 status: ``"ok"``, ``"lost"``, or ``"timeout"``.
    statuses: Dict[int, str]
    decide_commit: bool
    coordinator_silent: bool
    abort_cause: Optional[str]
    #: How many hooks fired (the merge pass replays their accounting).
    fires: int


def plan_twopc_decision(home: int, shards: Sequence[int]) -> TwoPCDecision:
    """Draw the 2PC fault decisions for one transaction ahead of time."""
    inj = faults.active()
    enabled = inj.enabled
    order = [home] + sorted(s for s in shards if s != home)
    statuses: Dict[int, str] = {}
    causes: List[str] = []
    fires = 0
    for shard in order:
        remote = shard != home
        if remote and enabled and inj.plan.draw(fault_plan.TWOPC_LOST_PREPARE):
            statuses[shard] = "lost"
            causes.append(fault_plan.TWOPC_LOST_PREPARE)
            fires += 1
            continue
        # The prepare is assumed to vote yes (asserted by the worker).
        if remote and enabled and inj.plan.draw(
            fault_plan.TWOPC_PARTICIPANT_TIMEOUT
        ):
            statuses[shard] = "timeout"
            causes.append(fault_plan.TWOPC_PARTICIPANT_TIMEOUT)
            fires += 1
            continue
        statuses[shard] = "ok"
    decide_commit = not causes
    coordinator_silent = False
    abort_cause: Optional[str] = None
    if decide_commit and enabled and inj.plan.draw(
        fault_plan.TWOPC_COORDINATOR_CRASH
    ):
        decide_commit = False
        coordinator_silent = True
        abort_cause = fault_plan.TWOPC_COORDINATOR_CRASH
        fires += 1
    elif not decide_commit:
        abort_cause = causes[0]
    return TwoPCDecision(
        order=tuple(order),
        statuses=statuses,
        decide_commit=decide_commit,
        coordinator_silent=coordinator_silent,
        abort_cause=abort_cause,
        fires=fires,
    )


@dataclass
class TwoPhaseOutcome:
    """Resolution of one cross-shard transaction."""

    committed: bool
    #: Client-observed latency: participant execution plus interconnect
    #: messages plus any coordinator/participant timeouts (ns).
    latency: float
    #: The interconnect/timeout share of the latency — serial
    #: coordination work that belongs to no single shard's busy time.
    coordination_time: float
    #: Why the transaction aborted (hook name or ``"vote_no"``); None
    #: when committed.
    abort_cause: Optional[str]
    #: Per-participant results (a shard hit by a lost prepare never
    #: executed and has no entry).
    per_shard: Dict[int, TxnResult] = field(default_factory=dict)


class TwoPhaseCommit:
    """Coordinates cross-shard transactions over the shard engines."""

    #: A coordinator/participant timeout, in one-way interconnect hops.
    TIMEOUT_HOPS = 4.0

    def __init__(self, engines: Sequence, interconnect_ns: float = 500.0) -> None:
        self.engines = list(engines)
        self.interconnect_ns = float(interconnect_ns)
        self.attempted = 0
        self.committed = 0
        self.aborted = 0
        self.aborts_by_cause: Dict[str, int] = {}
        #: Total interconnect + timeout time across all transactions.
        self.coordination_time = 0.0
        #: Per-transaction outcome rows ``{shard: "committed"|"aborted"}``
        #: — the atomicity checker's evidence log.
        self.outcomes: List[Dict[int, str]] = []

    @property
    def timeout_ns(self) -> float:
        """How long a silent peer is waited for before presuming abort."""
        return self.TIMEOUT_HOPS * self.interconnect_ns

    def execute(
        self,
        home: int,
        sub_txns: Dict[int, Callable[[TxnContext], None]],
    ) -> TwoPhaseOutcome:
        """Run one cross-shard transaction through both phases.

        ``home`` is the coordinator's shard (its participant exchanges no
        interconnect messages); the other participants pay one message
        per prepare request, vote, decision, and ack. Participants are
        prepared in deterministic order — home first, then ascending —
        so a run replays identically under the same fault plan.
        """
        if home not in sub_txns:
            raise TransactionError(f"home shard {home} has no sub-transaction")
        order = [home] + sorted(s for s in sub_txns if s != home)
        inj = faults.active()

        prepared: Dict[int, object] = {}
        statuses: Dict[int, str] = {}
        vote_no_results: Dict[int, TxnResult] = {}
        causes: List[str] = []
        for shard in order:
            remote = shard != home
            if remote and inj.enabled and inj.fire(fault_plan.TWOPC_LOST_PREPARE):
                # The request vanished in the interconnect: the
                # participant never executes, the coordinator's
                # timeout expires, and the vote is a presumed no.
                inj.detect(fault_plan.TWOPC_LOST_PREPARE)
                statuses[shard] = "lost"
                causes.append(fault_plan.TWOPC_LOST_PREPARE)
                continue
            handle = on_shard(shard, self.engines[shard].oltp.prepare, sub_txns[shard])
            prepared[shard] = handle
            if not handle.vote_yes:
                statuses[shard] = "vote_no"
                vote_no_results[shard] = handle.result
                causes.append("vote_no")
                continue
            if remote and inj.enabled and inj.fire(
                fault_plan.TWOPC_PARTICIPANT_TIMEOUT
            ):
                # The participant executed and voted yes, but the vote
                # never arrived; the coordinator times out and decides
                # abort — the prepared participant is resolved below.
                inj.detect(fault_plan.TWOPC_PARTICIPANT_TIMEOUT)
                statuses[shard] = "timeout"
                causes.append(fault_plan.TWOPC_PARTICIPANT_TIMEOUT)
                continue
            statuses[shard] = "ok"

        decide_commit = not causes
        abort_cause: Optional[str] = None
        coordinator_silent = False
        if decide_commit and inj.enabled and inj.fire(
            fault_plan.TWOPC_COORDINATOR_CRASH
        ):
            # Every vote was yes, but the coordinator dies before any
            # decision leaves it. Presumed abort: no decision message
            # ever travels; each prepared participant times out and
            # unilaterally aborts.
            inj.detect(fault_plan.TWOPC_COORDINATOR_CRASH)
            decide_commit = False
            coordinator_silent = True
            abort_cause = fault_plan.TWOPC_COORDINATOR_CRASH
        elif not decide_commit:
            abort_cause = causes[0]

        def resolve(shard: int, action: str) -> TxnResult:
            oltp = self.engines[shard].oltp
            call = oltp.commit_prepared if action == "commit" else oltp.abort_prepared
            return on_shard(shard, call, prepared[shard])

        return self._settle(
            home,
            order,
            statuses,
            vote_no_results,
            decide_commit,
            coordinator_silent,
            abort_cause,
            resolve,
        )

    def _settle(
        self,
        home: int,
        order: Sequence[int],
        statuses: Dict[int, str],
        vote_no_results: Dict[int, TxnResult],
        decide_commit: bool,
        coordinator_silent: bool,
        abort_cause: Optional[str],
        resolve: Callable[[int, str], TxnResult],
    ) -> TwoPhaseOutcome:
        """Resolve phase 2 and account the transaction.

        Shared between the sequential coordinator (``resolve`` commits or
        aborts the prepared handle on the live engine) and the parallel
        merge (``resolve`` replays the worker's journaled resolution and
        returns its result). The message/timeout arithmetic re-walks
        phase 1 from ``statuses`` in the exact accumulation order the
        inline version used, so latencies stay bit-identical.
        """
        tel = telemetry.active()
        self.attempted += 1
        msg_time = 0.0
        wait_time = 0.0
        for shard in order:
            remote = shard != home
            status = statuses[shard]
            if remote:
                msg_time += self.interconnect_ns  # prepare request
            if status == "lost":
                wait_time += self.timeout_ns
            elif status == "vote_no":
                if remote:
                    msg_time += self.interconnect_ns  # the no-vote reply
            elif status == "timeout":
                wait_time += self.timeout_ns
            elif remote:
                msg_time += self.interconnect_ns  # yes-vote reply

        per_shard: Dict[int, TxnResult] = {}
        outcome_row: Dict[int, str] = {}
        for shard in order:
            status = statuses[shard]
            if status == "lost":
                # Lost prepare: nothing executed, nothing to resolve.
                outcome_row[shard] = "aborted"
                continue
            if status == "vote_no":
                per_shard[shard] = vote_no_results[shard]
                outcome_row[shard] = "aborted"
                continue
            if decide_commit:
                per_shard[shard] = resolve(shard, "commit")
                outcome_row[shard] = "committed"
                if shard != home:
                    msg_time += 2 * self.interconnect_ns  # decision + ack
            else:
                per_shard[shard] = resolve(shard, "abort")
                outcome_row[shard] = "aborted"
                if coordinator_silent:
                    wait_time += self.timeout_ns  # resolved by timeout
                elif shard != home:
                    msg_time += self.interconnect_ns  # abort notification
        self.outcomes.append(outcome_row)

        exec_time = sum(r.total_time for r in per_shard.values())
        coordination = msg_time + wait_time
        self.coordination_time += coordination
        latency = exec_time + coordination
        if decide_commit:
            telemetry.count(self, "committed", "cluster.twopc.committed")
        else:
            telemetry.count(self, "aborted", "cluster.twopc.aborted")
            telemetry.tally(
                self.aborts_by_cause, abort_cause, f"cluster.twopc.aborted.{abort_cause}"
            )
        if tel.enabled:
            tel.counter("cluster.twopc.attempted").inc()
            tel.histogram("cluster.twopc.latency_ns").observe(latency)
            tel.record_span(
                "cluster.twopc",
                latency,
                {"home": home, "participants": len(order)},
            )
        return TwoPhaseOutcome(
            committed=decide_commit,
            latency=latency,
            coordination_time=coordination,
            abort_cause=abort_cause,
            per_shard=per_shard,
        )

    def atomicity_violations(self) -> List[str]:
        """Transactions where one shard committed while another aborted.

        Always empty when the protocol is correct — every fault-sweep
        cell asserts this over the full outcome log.
        """
        found: List[str] = []
        for index, row in enumerate(self.outcomes):
            statuses = set(row.values())
            if "committed" in statuses and "aborted" in statuses:
                found.append(f"cross-shard txn {index}: mixed outcomes {row}")
        return found
