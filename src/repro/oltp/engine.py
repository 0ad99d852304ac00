"""The OLTP engine: transaction execution with a per-phase cost model.

Transactions run *functionally* against the MVCC tables (real reads,
updates, inserts) while a cost model accumulates the Fig. 11c breakdown:
indexing, memory allocation, computation, version-chain traversal, memory
access (format-dependent — this is where RS/CS/PUSHtap differ, Fig. 9a),
data re-layout (unified format only), and the commit-time ``clflush`` +
barrier that keeps DRAM fresh for the OLAP engine (§6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.database import Database
from repro.errors import TransactionAborted, TransactionError
from repro.faults import injector as faults
from repro.faults import plan as fault_plan
from repro.format.schema import Value
from repro.oltp.formats import AccessFormatModel
from repro.oltp.index import PROBE_LINES
from repro.pim.timing import BankTimingModel, random_line_time
from repro.telemetry import registry as telemetry

__all__ = [
    "CostParams",
    "TxnBreakdown",
    "TxnResult",
    "OLTPEngine",
    "TxnContext",
    "PreparedTxn",
]


@dataclass(frozen=True)
class CostParams:
    """Tunable cost constants of the transaction model (all ns).

    Defaults are calibrated so the Fig. 11c proportions hold: indexing,
    allocation, and computation dominate; version-chain traversal is
    < 0.1 % (§7.4).
    """

    index_compute_ns: float = 150.0
    alloc_ns: float = 400.0
    compute_per_op_ns: float = 350.0
    chain_entry_ns: float = 2.0
    relayout_per_byte_ns: float = 0.25
    flush_per_line_ns: float = 25.0
    commit_barrier_ns: float = 30.0


@dataclass
class TxnBreakdown:
    """Per-phase time of one transaction (Fig. 11c)."""

    index: float = 0.0
    alloc: float = 0.0
    compute: float = 0.0
    chain: float = 0.0
    memory: float = 0.0
    relayout: float = 0.0
    flush: float = 0.0

    @property
    def total(self) -> float:
        """Total transaction time."""
        return (
            self.index
            + self.alloc
            + self.compute
            + self.chain
            + self.memory
            + self.relayout
            + self.flush
        )

    def merge(self, other: "TxnBreakdown") -> "TxnBreakdown":
        """Sum two breakdowns."""
        return TxnBreakdown(
            self.index + other.index,
            self.alloc + other.alloc,
            self.compute + other.compute,
            self.chain + other.chain,
            self.memory + other.memory,
            self.relayout + other.relayout,
            self.flush + other.flush,
        )

    def as_dict(self) -> Dict[str, float]:
        """Breakdown as a name → time mapping."""
        return {
            "index": self.index,
            "alloc": self.alloc,
            "compute": self.compute,
            "chain": self.chain,
            "memory": self.memory,
            "relayout": self.relayout,
            "flush": self.flush,
        }


@dataclass
class TxnResult:
    """Outcome of one committed (or aborted) transaction."""

    ts: int
    breakdown: TxnBreakdown
    rows_read: int = 0
    rows_written: int = 0
    aborted: bool = False

    @property
    def total_time(self) -> float:
        """Total transaction latency in ns."""
        return self.breakdown.total


class TxnContext:
    """Operations available to a running transaction."""

    def __init__(self, engine: "OLTPEngine", ts: int) -> None:
        self.engine = engine
        self.ts = ts
        self.breakdown = TxnBreakdown()
        self.rows_read = 0
        self.rows_written = 0
        self._written_lines = 0
        # Per-transaction hoists of the per-access lookups: the cost
        # constants, the charge memo and the roofline telemetry decision are
        # fixed for the transaction's lifetime, so resolving them once here
        # keeps them out of the per-row loop.
        self._cost = engine.cost
        self._charges = engine.access_charges
        tel = telemetry.active()
        self._roofline = bool(tel.enabled and tel.roofline)

    # ------------------------------------------------------------------
    # Index operations
    # ------------------------------------------------------------------
    def index_lookup(self, index: str, key: Hashable) -> int:
        """Probe an index; raises if the key is absent."""
        row_id = self.engine.db.index(index).probe(key)
        self._charge_index()
        if row_id is None:
            raise TransactionError(f"index {index!r}: key {key!r} not found (ts {self.ts})")
        return row_id

    def _charge_index(self) -> None:
        """One index probe, insert or remove (DESIGN.md §5)."""
        self.breakdown.index += self._cost.index_compute_ns + PROBE_LINES * self.engine.line_ns

    # ------------------------------------------------------------------
    # Row operations
    # ------------------------------------------------------------------
    def read(
        self, table: str, row_id: int, columns: Optional[Sequence[str]] = None
    ) -> Dict[str, Value]:
        """Read the visible version of a row (optionally partial)."""
        runtime = self.engine.db.table(table)
        delta, chain_len = runtime.mvcc.read(row_id, self.ts)
        self.breakdown.chain += chain_len * self._cost.chain_entry_ns
        # Partial reads fetch only the requested columns' byte runs —
        # the simulated cost model already charges by touched lines via
        # _account_access; this keeps the *host* cost proportional too.
        row = runtime.storage.read_row(row_id, delta, columns)
        self._account_access(table, columns, write=False, row_id=row_id)
        self.breakdown.compute += self._cost.compute_per_op_ns
        self.rows_read += 1
        return row

    def update(self, table: str, row_id: int, changes: Dict[str, Value]) -> None:
        """Install a new version of a row with ``changes``."""
        inj = faults.active()
        if inj.enabled and inj.fire(fault_plan.DELTA_EXHAUSTION):
            # The delta region reports exhaustion mid-transaction: the
            # allocation fails and the transaction aborts gracefully (its
            # earlier writes roll back), instead of crashing the engine.
            inj.detect(fault_plan.DELTA_EXHAUSTION)
            raise TransactionAborted(
                "injected fault: delta region exhausted mid-transaction"
            )
        chain_len = self.engine.db.table(table).update_row(row_id, self.ts, changes)
        self.breakdown.chain += chain_len * self._cost.chain_entry_ns
        self.breakdown.alloc += self._cost.alloc_ns
        # Writing a version writes the whole row (new delta row).
        self._account_access(table, None, write=True, row_id=row_id)
        self.breakdown.compute += self._cost.compute_per_op_ns
        self.rows_written += 1

    def insert(self, table: str, values: Dict[str, Value]) -> int:
        """Append a row; an indexed table indexes it under its key."""
        runtime = self.engine.db.table(table)
        self.breakdown.alloc += self._cost.alloc_ns
        row_id = runtime.insert_row(self.ts, values)
        self._account_access(table, None, write=True, row_id=row_id)
        self.breakdown.compute += self._cost.compute_per_op_ns
        self.rows_written += 1
        if runtime.index is not None:
            self._charge_index()
        return row_id

    def delete(self, table: str, row_id: int) -> None:
        """Tombstone a row; an indexed table drops its key."""
        runtime = self.engine.db.table(table)
        chain_len = runtime.delete_row(row_id, self.ts)
        self.breakdown.chain += chain_len * self._cost.chain_entry_ns
        self._account_access(table, None, write=True, row_id=row_id)
        self.breakdown.compute += self._cost.compute_per_op_ns
        self.rows_written += 1
        if runtime.index is not None:
            self._charge_index()

    def abort(self, reason: str = "") -> None:
        """Abort the transaction; the engine rolls back its writes."""
        raise TransactionAborted(reason or "transaction aborted")

    def rollback(self) -> None:
        """Undo every write of this transaction: each table pops the
        journal entries stamped with its ts and undoes their index changes
        (a table it never wrote has none). That covers a write that failed
        half-way too, since its journal entry comes first."""
        for runtime in self.engine.db.tables.values():
            runtime.rollback(self.ts)
        self._written_lines = 0

    def _account_access(
        self,
        table: str,
        columns: Optional[Sequence[str]],
        write: bool,
        row_id: int = -1,
    ) -> None:
        key = (table, None if columns is None else tuple(columns))
        charge = self._charges.get(key) or self.engine.access_charge(key)
        lines, memory_ns, relayout_ns = charge
        self.breakdown.memory += memory_ns
        self.breakdown.relayout += relayout_ns
        if write:
            self._written_lines += lines
        if self._roofline and row_id >= 0:
            self.engine.track_rowbuffer(table, row_id, lines, write)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit(self) -> TxnResult:
        """Flush written lines + memory barrier (§6.3) and finish.

        The flush is exactly a 2PC :meth:`prepare`'s: the same dirty
        lines must reach DRAM before either may report success.
        """
        self.prepare()
        return self._result()

    def _result(self) -> TxnResult:
        return TxnResult(
            ts=self.ts,
            breakdown=self.breakdown,
            rows_read=self.rows_read,
            rows_written=self.rows_written,
        )

    # ------------------------------------------------------------------
    # Two-phase commit
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """First 2PC phase: harden the writes plus a prepare record.

        The participant flushes every written line and appends its
        prepare record, both charged through the §6.3 flush model —
        identical cost to a single-phase commit, because the same dirty
        lines must reach DRAM before the participant may vote yes. Its
        write locks stay held until :meth:`finalize_commit` or
        :meth:`rollback` resolves the decision.
        """
        self.breakdown.flush += (
            self._written_lines * self._cost.flush_per_line_ns
            + self._cost.commit_barrier_ns
        )

    def finalize_commit(self) -> TxnResult:
        """Second 2PC phase: the decision record flush + barrier.

        One extra flushed line (the commit record referencing the
        prepare record) plus the barrier — the per-participant overhead
        a cross-shard transaction pays over a single-phase commit.
        """
        self.breakdown.flush += (
            self._cost.flush_per_line_ns + self._cost.commit_barrier_ns
        )
        return self._result()


class PreparedTxn:
    """A transaction that ran its body and voted in a 2PC prepare phase.

    ``vote_yes`` carries the participant's vote: True means the body
    executed and its writes are hardened behind a prepare record (locks
    held, awaiting the coordinator's decision); False means the body
    aborted during prepare — the writes are already rolled back and the
    participant needs no further resolution. The coordinator resolves a
    yes-voting handle with exactly one of
    :meth:`OLTPEngine.commit_prepared` / :meth:`OLTPEngine.abort_prepared`.
    """

    __slots__ = ("ctx", "txn_name", "vote_yes", "result", "resolved")

    def __init__(
        self,
        ctx: TxnContext,
        txn_name: str,
        vote_yes: bool,
        result: Optional[TxnResult] = None,
    ) -> None:
        self.ctx = ctx
        self.txn_name = txn_name
        self.vote_yes = vote_yes
        self.result = result
        self.resolved = not vote_yes


class OLTPEngine:
    """Executes transactions against a database under a format model."""

    def __init__(
        self,
        db: Database,
        format_model: AccessFormatModel,
        config: SystemConfig,
        cost: CostParams = CostParams(),
    ) -> None:
        self.db = db
        self.format_model = format_model
        self.config = config
        self.cost = cost
        #: Modelled latency of one random cache-line access.
        self.line_ns = random_line_time(1, config.timings)
        #: Per-table row-buffer shadow models (roofline observability).
        #: Populated lazily while the telemetry ``roofline`` flag is on.
        self.rowbuffers: Dict[str, BankTimingModel] = {}
        #: Each transaction is accounted once, where it commits or aborts:
        #: ``committed`` is the engine's one commit count, ``busy_time`` its
        #: OLTP time; ``total_time`` and ``breakdown`` cover commits only.
        self.committed = 0
        self.aborted = 0
        self.busy_time = 0.0
        self.total_time = 0.0
        self.breakdown = TxnBreakdown()
        #: Optional :class:`repro.wal.DurabilityManager`; when set, every
        #: commit appends a redo record to the write-ahead log and the
        #: append/fsync cost lands in the transaction's flush phase.
        self.durability = None

    @property
    def format_model(self) -> AccessFormatModel:
        """The access-format cost model; assigning one drops the memo of
        its charges (:attr:`access_charges`)."""
        return self._format_model

    @format_model.setter
    def format_model(self, model: AccessFormatModel) -> None:
        self._format_model = model
        #: ``(table, columns tuple | None) → (lines, memory ns, relayout
        #: ns)`` of one row access under :attr:`format_model`; each charge
        #: depends on nothing else, so it is computed once per selection.
        self.access_charges: Dict[Tuple[str, Optional[Tuple[str, ...]]], Tuple] = {}

    def access_charge(self, key: Tuple[str, Optional[Tuple[str, ...]]]) -> Tuple:
        """The memoized charge of one ``(table, columns)`` access."""
        charge = self.access_charges.get(key)
        if charge is None:
            table, columns = key
            model = self._format_model
            lines = model.lines_for_row(table, columns)
            charge = self.access_charges[key] = (
                lines,
                lines * self.line_ns,
                model.relayout_bytes(table, columns) * self.cost.relayout_per_byte_ns,
            )
        return charge

    def track_rowbuffer(self, table: str, row_id: int, lines: int, write: bool) -> None:
        """Feed one row access into the table's row-buffer shadow model.

        Active only while the telemetry registry's ``roofline`` flag is
        on (zero overhead otherwise). The DRAM row is derived from the
        row's byte position in the table's base layout — a proxy for the
        physical placement that preserves locality structure: adjacent
        row ids share DRAM rows, scattered ones conflict.
        """
        tel = telemetry.active()
        if row_id < 0 or not (tel.enabled and tel.roofline):
            return
        model = self.rowbuffers.get(table)
        if model is None:
            model = self.rowbuffers[table] = BankTimingModel(self.config.timings)
        geom = self.config.geometry
        row_bytes = self.access_charge((table, None))[0] * geom.cache_line_bytes
        dram_row = (row_id * row_bytes) // geom.row_buffer_bytes
        model.access(dram_row, lines * geom.cache_line_bytes, write)

    def execute(self, txn: Callable[[TxnContext], None]) -> TxnResult:
        """Run ``txn`` to commit; returns its timing.

        A :class:`TransactionAborted` raised inside the transaction (via
        ``ctx.abort()`` or a business rule) rolls back every write and
        returns an aborted result; any other exception also rolls back
        but propagates (failure injection keeps the database consistent).
        """
        ctx, txn_name, aborted = self._run(txn)
        if aborted is not None:
            return aborted
        return self._account_commit(ctx, txn_name, ctx.commit())

    def _run(
        self, txn: Callable[[TxnContext], None]
    ) -> Tuple[TxnContext, str, Optional[TxnResult]]:
        """Run ``txn``'s body at a fresh timestamp.

        Returns its context, its name, and — if the body aborted, now
        rolled back and counted — the aborted result (else None).
        """
        ctx = TxnContext(self, self.db.oracle.next_timestamp())
        inj = faults.active()
        txn_name = getattr(txn, "txn_name", None) or getattr(txn, "__name__", "txn")
        injected_abort = inj.enabled and inj.fire(fault_plan.FORCED_ABORT)
        try:
            if injected_abort:
                # Abort storm: concurrency control force-aborts before the
                # transaction body runs; the engine surfaces it like any
                # other abort (rolled back, counted, no crash).
                raise TransactionAborted("injected fault: forced abort storm")
            txn(ctx)
        except TransactionAborted:
            return ctx, txn_name, self._abort(ctx, txn_name, injected_abort)
        except Exception:
            ctx.rollback()
            tel = telemetry.active()
            if tel.enabled:
                tel.counter("oltp.txn.failed").inc()
            raise
        return ctx, txn_name, None

    def _abort(self, ctx: TxnContext, txn_name: str, injected: bool = False) -> TxnResult:
        """Roll ``ctx`` back and account it aborted (its time is still
        busy time); returns its result."""
        ctx.rollback()
        self.aborted += 1
        if injected:
            faults.active().detect(fault_plan.FORCED_ABORT)
        tel = telemetry.active()
        if tel.enabled:
            tel.counter("oltp.txn.aborted").inc()
            tel.counter(f"oltp.txn.{txn_name}.aborted").inc()
        result = TxnResult(
            ts=ctx.ts,
            breakdown=ctx.breakdown,
            rows_read=ctx.rows_read,
            rows_written=0,
            aborted=True,
        )
        self.busy_time += result.total_time
        return result

    def _account_commit(self, ctx: TxnContext, txn_name: str, result: TxnResult) -> TxnResult:
        """Harden and account a committed transaction."""
        if self.durability is not None:
            # Harden the commit: the WAL append (and any checkpoint it
            # triggers) is charged through the same §6.3 flush model as
            # the commit's clflush+barrier. A SimulatedCrash raised by the
            # crash hooks propagates — a dead process does not roll back,
            # and leaves every counter untouched.
            result.breakdown.flush += self.durability.log_commit(ctx.ts)
        self.committed += 1
        self.busy_time += result.total_time
        self.total_time += result.total_time
        self.breakdown = self.breakdown.merge(result.breakdown)
        tel = telemetry.active()
        if tel.enabled:
            tel.counter("oltp.txn.committed").inc()
            tel.counter("oltp.rows_read").inc(result.rows_read)
            tel.counter("oltp.rows_written").inc(result.rows_written)
            tel.histogram(f"oltp.txn.{txn_name}.latency_ns").observe(result.total_time)
            tel.record_span("oltp.txn", result.total_time, {"type": txn_name})
        return result

    # ------------------------------------------------------------------
    # Two-phase commit participant interface
    # ------------------------------------------------------------------
    def prepare(self, txn: Callable[[TxnContext], None]) -> PreparedTxn:
        """Run ``txn``'s body and vote (2PC phase one).

        On success the writes are installed and hardened behind a
        prepare record (§6.3-charged), the context's locks stay held,
        and the returned handle votes yes. A :class:`TransactionAborted`
        inside the body (including the injected abort storm) rolls back
        immediately and votes no — the abort accounting matches
        :meth:`execute` so a no-vote looks exactly like a single-phase
        abort to the stats.
        """
        ctx, txn_name, aborted = self._run(txn)
        if aborted is not None:
            return PreparedTxn(ctx, txn_name, vote_yes=False, result=aborted)
        ctx.prepare()
        return PreparedTxn(ctx, txn_name, vote_yes=True)

    def commit_prepared(self, prepared: PreparedTxn) -> TxnResult:
        """Resolve a yes-voting prepare with a commit (2PC phase two)."""
        if prepared.resolved:
            raise TransactionError("prepared transaction already resolved")
        prepared.resolved = True
        ctx = prepared.ctx
        return self._account_commit(ctx, prepared.txn_name, ctx.finalize_commit())

    def abort_prepared(self, prepared: PreparedTxn) -> TxnResult:
        """Resolve a yes-voting prepare with a global abort.

        Presumed-abort: no abort record is flushed — the participant
        simply rolls back its installed writes (the prepare-phase work,
        including the prepare record, was still paid for).
        """
        if prepared.resolved:
            raise TransactionError("prepared transaction already resolved")
        prepared.resolved = True
        return self._abort(prepared.ctx, prepared.txn_name)

    @property
    def mean_txn_time(self) -> float:
        """Average committed-transaction latency in ns."""
        return self.total_time / self.committed if self.committed else 0.0
