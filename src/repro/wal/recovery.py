"""Crash recovery: rebuild an engine from the leveled store + WAL.

``recover(path, build_engine)`` starts from a *freshly built* engine
(the deterministic initial data load), applies every reachable
checkpoint segment at its horizon timestamp, then replays the WAL
records past the checkpoint horizon at their recorded commit
timestamps. All mutation goes through the table runtime's own paths
(``insert_row``/``update_row``/``delete_row``, which keep the table's
index), so the recovered engine satisfies the same invariants a live
engine does — which is exactly what the crash-sweep asserts with the
``InvariantChecker``. A WAL op of a shape this version does not write
(an unknown kind, arity or table) raises :class:`WALError` naming its ts.

``build_engine`` must reproduce the engine the durability directory was
written by (same build parameters, same seed) and must **not** itself
enable durability — the caller re-enables it afterwards if the
recovered engine should keep logging.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from repro.errors import WALError
from repro.wal.log import WriteAheadLog, unjsonify
from repro.wal.manager import liveness_bitmap
from repro.wal.store import LeveledStore

__all__ = ["RecoveryResult", "recover"]

#: How many segment updates to apply between defrag-due checks; keeps a
#: merged segment with many cold rows from exhausting a delta region.
_DEFRAG_CHECK_EVERY = 64

#: WAL op kind → its field count (the ``meta.json`` format 2 and 3 shapes).
_OP_FIELDS = {"update": 4, "insert": 4, "delete": 3}


@dataclass
class RecoveryResult:
    """What one recovery pass rebuilt, for reports and assertions."""

    engine: object
    #: Highest committed timestamp the recovered engine contains.
    horizon: int
    #: Horizon covered by checkpoint segments (0 if none reachable).
    checkpoint_horizon: int
    segments_applied: int
    wal_records_replayed: int
    torn_tail: bool
    orphan_segments: List[str] = field(default_factory=list)
    bitmap_mismatches: List[str] = field(default_factory=list)


def recover(path: str, build_engine: Callable[[], object]) -> RecoveryResult:
    """Rebuild an engine from the durability directory at ``path``."""
    engine = build_engine()
    if engine.durability is not None:
        raise WALError("build_engine must not enable durability before recovery")
    store = LeveledStore(path)
    orphans = store.drop_orphans()
    segments = store.load_segments()
    for segment in segments:
        _apply_segment(engine, segment)
    checkpoint_horizon = store.horizon
    mismatches = _verify_bitmaps(engine, segments, checkpoint_horizon)

    wal = WriteAheadLog(os.path.join(path, "wal.log"), sync=False)
    records, torn_tail = wal.replay()
    replayed = 0
    horizon = checkpoint_horizon
    for ts, ops in records:
        if ts <= checkpoint_horizon:
            # Rotation happens after the manifest commit; a crash in
            # between leaves records the checkpoint already covers.
            continue
        engine.db.oracle.advance_to(ts)
        if engine.defrag_due():
            engine.defragment()
        _apply_ops(engine, ts, ops)
        # A replayed record commits without executing a transaction: it
        # counts (and ages the defrag period) but costs no simulated time.
        engine.oltp.committed += 1
        replayed += 1
        horizon = ts
    engine.db.oracle.advance_to(horizon)
    return RecoveryResult(
        engine=engine,
        horizon=horizon,
        checkpoint_horizon=checkpoint_horizon,
        segments_applied=len(segments),
        wal_records_replayed=replayed,
        torn_tail=torn_tail,
        orphan_segments=orphans,
        bitmap_mismatches=mismatches,
    )


def _apply_segment(engine, segment: dict) -> None:
    """Apply one folded checkpoint window, entirely at its horizon ts."""
    horizon = int(segment["horizon"])
    engine.db.oracle.advance_to(horizon)
    for table in sorted(segment.get("tables", {})):
        rows = segment["tables"][table]
        if table not in engine.db.tables:
            raise WALError(f"segment at horizon {horizon}: unknown table {table!r}")
        runtime = engine.db.tables[table]
        entries = {int(key): entry for key, entry in rows.items()}
        created = sorted(rid for rid, e in entries.items() if e["created"])
        for rid in created:
            values = {col: unjsonify(v) for col, v in entries[rid]["values"].items()}
            new_id = runtime.insert_row(horizon, values)
            if new_id != rid:
                raise WALError(
                    f"segment at horizon {horizon}: {table} row {rid} materialized as {new_id}; "
                    f"segment applied out of order or against the wrong build"
                )
        updated = sorted(
            rid
            for rid, e in entries.items()
            if not e["created"] and e["values"] is not None and not e["deleted"]
        )
        for position, rid in enumerate(updated):
            changes = {col: unjsonify(v) for col, v in entries[rid]["values"].items()}
            runtime.update_row(rid, horizon, changes)
            if (position + 1) % _DEFRAG_CHECK_EVERY == 0 and engine.defrag_due():
                engine.defragment()
        for rid in sorted(rid for rid, e in entries.items() if e["deleted"]):
            runtime.delete_row(rid, horizon)
    if engine.defrag_due():
        engine.defragment()


def _apply_ops(engine, ts: int, ops: list) -> None:
    """Replay one WAL commit record through the table runtime paths."""
    where = f"WAL record at ts {ts}"
    for op in ops:
        kind = op[0] if isinstance(op, tuple) and op and isinstance(op[0], str) else None
        if kind not in _OP_FIELDS or len(op) != _OP_FIELDS[kind]:
            raise WALError(f"{where}: unknown op shape {op!r}")
        if op[1] not in engine.db.tables:
            raise WALError(f"{where}: unknown table {op[1]!r}")
        table, rid = engine.db.tables[op[1]], int(op[2])
        if kind == "update":
            table.update_row(rid, ts, dict(op[3]))
        elif kind == "insert":
            new_id = table.insert_row(ts, dict(op[3]))
            if new_id != rid:
                raise WALError(f"{where}: {op[1]} insert expected row {rid}, got {new_id}")
        else:
            table.delete_row(rid, ts)


def _verify_bitmaps(engine, segments: List[dict], horizon: int) -> List[str]:
    """Cross-check recovered liveness against the newest segment's bitmaps."""
    if not segments:
        return []
    stored = segments[-1].get("bitmaps", {})
    mismatches: List[str] = []
    for table, expected in sorted(stored.items()):
        mvcc = engine.db.table(table).mvcc
        actual = liveness_bitmap(mvcc, horizon)
        if actual["num_rows"] != expected["num_rows"]:
            mismatches.append(
                f"{table}: num_rows {actual['num_rows']} != stored "
                f"{expected['num_rows']} at checkpoint horizon {horizon}"
            )
            continue
        if actual["bits"] != expected["bits"]:
            stored_bits = np.unpackbits(
                np.frombuffer(bytes.fromhex(expected["bits"]), dtype=np.uint8)
            )[: expected["num_rows"]]
            live_bits = np.unpackbits(
                np.frombuffer(bytes.fromhex(actual["bits"]), dtype=np.uint8)
            )[: actual["num_rows"]]
            differing = int(np.count_nonzero(stored_bits != live_bits))
            mismatches.append(
                f"{table}: liveness bitmap differs in {differing} rows at "
                f"checkpoint horizon {horizon}"
            )
    return mismatches
