"""The durability layer an engine gets from ``enable_durability``.

``log_commit`` runs inside the commit path of every transaction: it
reads the transaction's logical redo ops off each table's version
journal, appends them to the WAL (fsync'd), folds them into the pending
checkpoint window, and — every
``checkpoint_every`` commits — spills the folded window plus per-table
liveness bitmaps as a segment into the :class:`~repro.wal.store.LeveledStore`
and rotates the WAL.

Costs are charged through the §6.3 commit model: every
:data:`~repro.wal.log.LINE_BYTES` bytes appended or spilled costs
``flush_per_line_ns`` and each fsync barrier costs
``commit_barrier_ns``, returned to the caller so the committing
transaction's flush phase (and hence the serve loop's simulated clock)
carries the durability overhead.

The three ``crash_*`` fault hooks strike here:

* ``crash_before_wal_append`` — the commit record never reaches disk;
* ``crash_after_wal_append`` — the record is durable, the process dies
  before acknowledging;
* ``crash_mid_checkpoint`` — the segment file is written but the
  manifest rename never happens (recovery must ignore the orphan).
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.errors import SimulatedCrash
from repro.faults import injector as faults
from repro.faults import plan as fault_plan
from repro.mvcc.manager import INSERT, UPDATE
from repro.telemetry import registry as telemetry
from repro.units import ceil_div
from repro.wal.log import LINE_BYTES, WriteAheadLog, jsonify
from repro.wal.store import LeveledStore

__all__ = ["DurabilityManager", "liveness_bitmap"]

META_NAME = "meta.json"


def liveness_bitmap(mvcc, horizon: int) -> dict:
    """Logical row-liveness of one table at ``horizon``, hex-packed.

    A row is live unless it was folded dead by defragmentation or
    carries a tombstone at or before the horizon. Checkpoints store
    this; recovery recomputes it to cross-check the rebuilt state.
    """
    alive = mvcc.alive_at(horizon)
    return {"num_rows": int(mvcc.num_rows), "bits": np.packbits(alive).tobytes().hex()}


class DurabilityManager:
    """WAL + checkpoint spill for one :class:`PushTapEngine`."""

    def __init__(
        self, engine, path: str, checkpoint_every: int = 0, sync: bool = True
    ) -> None:
        self.engine = engine
        self.path = path
        self.checkpoint_every = int(checkpoint_every)
        os.makedirs(path, exist_ok=True)
        self.store = LeveledStore(path)
        self.wal = WriteAheadLog(os.path.join(path, "wal.log"), sync=sync)
        self.cost = engine.oltp.cost
        self._write_meta(sync)
        #: Folded redo state of the open checkpoint window:
        #: ``{table: {"<row_id>": entry}}`` in segment-entry shape.
        self._pending = {}
        self._since_checkpoint = 0
        self._last_ts = self.store.horizon
        self.records = 0
        self.bytes_appended = 0
        self.checkpoints = 0

    def _write_meta(self, sync: bool) -> None:
        # Informational only — recovery takes the engine-build callable
        # from its caller, not from disk.
        meta = {
            "format": 3,
            "checkpoint_every": self.checkpoint_every,
            "sync": bool(sync),
        }
        with open(os.path.join(self.path, META_NAME), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True)

    # ------------------------------------------------------------------
    # Commit path
    # ------------------------------------------------------------------
    def log_commit(self, ts: int) -> float:
        """Harden the transaction committed at ``ts``; returns the charged ns."""
        inj = faults.active()
        if inj.enabled and inj.fire(fault_plan.CRASH_BEFORE_WAL_APPEND):
            raise SimulatedCrash(
                "injected crash before WAL append: commit record lost"
            )
        json_ops = [jsonify(op) for op in self._redo_ops(ts)]
        nbytes = self.wal.append(ts, json_ops)
        cost = (
            ceil_div(nbytes, LINE_BYTES) * self.cost.flush_per_line_ns
            + self.cost.commit_barrier_ns
        )
        self.records += 1
        self.bytes_appended += nbytes
        self._fold(json_ops)
        self._last_ts = int(ts)
        self._since_checkpoint += 1
        tel = telemetry.active()
        if tel.enabled:
            tel.counter("wal.records").inc()
            tel.counter("wal.bytes").inc(nbytes)
            tel.record_span("wal.append", cost, {"bytes": nbytes})
        if inj.enabled and inj.fire(fault_plan.CRASH_AFTER_WAL_APPEND):
            raise SimulatedCrash(
                "injected crash after WAL append: record durable, process dead"
            )
        if self.checkpoint_every and self._since_checkpoint >= self.checkpoint_every:
            cost += self.checkpoint()
        return cost

    def _redo_ops(self, ts: int) -> list:
        """The redo ops of the transaction committed at ``ts``: its journal
        entries, table by table, in journal order. An insert logs its data
        slot's row, an update the columns where its version differs from
        the one it supersedes (``{}`` if none), a delete its row id; every
        read is on the host, uncharged."""
        ops = []
        for name, runtime in self.engine.db.tables.items():
            window = runtime.mvcc.log_between(ts - 1, ts)
            read = runtime.storage.read_row
            for kind, row, delta, old in zip(*(column.tolist() for column in window[1:])):
                if kind == UPDATE:
                    new, prev = read(row, delta), read(row, old)
                    changes = {col: v for col, v in new.items() if v != prev[col]}
                    ops.append(("update", name, row, changes))
                elif kind == INSERT:
                    ops.append(("insert", name, row, read(row, delta)))
                else:
                    ops.append(("delete", name, row))
        return ops

    def _fold(self, json_ops: list) -> None:
        for op in json_ops:
            kind, table, row_id = op[0], op[1], op[2]
            rows = self._pending.setdefault(table, {})
            key = str(row_id)
            entry = rows.setdefault(
                key, {"created": False, "values": None, "deleted": False}
            )
            if kind == "update":
                values = dict(entry["values"] or {})
                values.update(op[3])
                entry["values"] = values
            elif kind == "insert":
                entry["created"] = True
                entry["values"] = dict(op[3])
            elif kind == "delete":
                entry["deleted"] = True

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> float:
        """Spill the folded window as a segment and rotate the WAL."""
        horizon = self._last_ts
        segment = {
            "horizon": horizon,
            "tables": self._pending,
            "bitmaps": {
                name: liveness_bitmap(runtime.mvcc, horizon)
                for name, runtime in self.engine.db.tables.items()
            },
        }
        name = self.store.write_segment(segment)
        inj = faults.active()
        if inj.enabled and inj.fire(fault_plan.CRASH_MID_CHECKPOINT):
            raise SimulatedCrash(
                "injected crash mid-checkpoint: segment written, manifest not renamed"
            )
        nbytes = self.store.segment_bytes(name)
        compactions = self.store.commit_segment(name, horizon)
        self.wal.reset()
        self._pending = {}
        self._since_checkpoint = 0
        self.checkpoints += 1
        cost = (
            ceil_div(nbytes, LINE_BYTES) * self.cost.flush_per_line_ns
            + self.cost.commit_barrier_ns
        )
        tel = telemetry.active()
        if tel.enabled:
            tel.counter("wal.checkpoints").inc()
            if compactions:
                tel.counter("wal.compactions").inc(compactions)
            tel.record_span(
                "wal.checkpoint", cost, {"bytes": nbytes, "horizon": horizon}
            )
        return cost

    # ------------------------------------------------------------------
    # Lifecycle / reporting
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release file handles; never writes (a crash may precede this)."""
        self.wal.close()
