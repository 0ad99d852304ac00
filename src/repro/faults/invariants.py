"""Cross-subsystem invariant checking for the fault-injection harness.

The :class:`InvariantChecker` inspects a whole engine at *safe points*
(between transactions, after queries, at interval boundaries — never
mid-offload) and asserts that injected faults were absorbed gracefully
rather than corrupting state:

* **Controller discipline** — no bank may stay locked outside an
  offload; the PUSHtap scheduler's pending slot must be empty; the
  original controller must not believe an offload is still active.
* **MVCC agreement** — the version journal's timestamps never
  decrease; ``insert`` entries form the contiguous tail of the row-id
  space; ``delete`` entries (pending tombstones) and folded dead rows
  are in range, disjoint, and together the tombstoned set; each updated
  row's newest version is its last ``update`` entry; and every update's
  delta row is allocated and every allocated delta row is referenced (a
  bijection — dangling or leaked delta rows fail here).
* **Snapshot agreement** — the incremental bitmaps equal a from-scratch
  rebuild off the journal and the per-row heads' visibility bitmaps, and
  the packed per-device copy in simulated DRAM equals the packed
  in-memory bitmap.
* **Index agreement** — an indexed table's index holds exactly one entry
  per row alive at the read timestamp, under the key of the row's
  data-slot key columns (one :meth:`TableStorage.read_rows` per table).

The checker deliberately avoids importing :mod:`repro.core.engine` — it
duck-types the engine (``db``, ``controller``) so low-level modules that
participate in fault injection never gain an import cycle through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from repro.errors import InvariantViolation
from repro.mvcc.manager import DELETE, INSERT, UPDATE
from repro.mvcc.metadata import Region
from repro.telemetry import registry as telemetry
from repro.units import ceil_div

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import PushTapEngine

__all__ = ["InvariantChecker"]


class InvariantChecker:
    """Checks engine-wide consistency invariants at safe points."""

    def __init__(self, engine: "PushTapEngine", raise_on_violation: bool = True) -> None:
        self.engine = engine
        self.raise_on_violation = raise_on_violation
        self.checks = 0
        self.violations: List[str] = []

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def check(self) -> List[str]:
        """Run every invariant; returns (and records) the violations."""
        found: List[str] = []
        found.extend(self._check_controller())
        for name, runtime in self.engine.db.tables.items():
            found.extend(self._check_mvcc(name, runtime))
            found.extend(self._check_snapshot(name, runtime))
            found.extend(self._check_index(name, runtime))
        telemetry.count(self, "checks", "faults.invariant.checks")
        self.violations.extend(found)
        tel = telemetry.active()
        if tel.enabled and found:
            tel.counter("faults.invariant.violations").inc(len(found))
        if found and self.raise_on_violation:
            raise InvariantViolation("; ".join(found))
        return found

    # ------------------------------------------------------------------
    # Controller invariants
    # ------------------------------------------------------------------
    def _check_controller(self) -> List[str]:
        found: List[str] = []
        controller = self.engine.controller
        pending = getattr(controller, "pending", None)
        if pending is not None:
            found.append(
                f"controller has pending operation {pending.op.name} at a safe point"
            )
        if getattr(controller, "_offload_active", False):
            found.append("controller reports an offload active at a safe point")
        if getattr(controller, "mode_batch_active", False):
            found.append("controller holds a mode batch open at a safe point")
        locked = [
            unit.unit_id for unit in controller.units if unit.bank.locked
        ]
        if locked:
            found.append(
                f"{len(locked)} bank(s) left locked outside an offload "
                f"(units {locked[:8]})"
            )
        return found

    # ------------------------------------------------------------------
    # MVCC invariants
    # ------------------------------------------------------------------
    def _check_mvcc(self, name: str, runtime) -> List[str]:
        found: List[str] = []
        mvcc = runtime.mvcc
        journal = mvcc.journal
        kind, rows = journal.kind, journal.row_id

        # Journal timestamps never decrease (commit order).
        drops = np.flatnonzero(np.diff(journal.write_ts) < 0)
        if drops.size:
            i = int(drops[0])
            found.append(
                f"{name}: journal write_ts {journal.write_ts[i + 1]} after "
                f"{journal.write_ts[i]}"
            )

        # Inserts form the contiguous tail of the row-id space.
        inserts = rows[kind == INSERT].tolist()
        if inserts != list(range(mvcc.num_rows - len(inserts), mvcc.num_rows)):
            found.append(
                f"{name}: insert entries {inserts[:8]}... do not form the "
                f"contiguous row-id tail ending at {mvcc.num_rows - 1}"
            )

        # Pending tombstones (delete entries) and folded dead rows: in
        # range, disjoint, and together exactly the tombstoned set.
        deletes = rows[kind == DELETE].tolist()
        dead = np.flatnonzero(~mvcc.alive_at(-1)).tolist()
        tombstoned = mvcc.tombstoned_rows()
        if (
            tombstoned != sorted(set(deletes) | set(dead))
            or len(tombstoned) != len(deletes) + len(dead)
            or (tombstoned and tombstoned[-1] >= mvcc.num_rows)
        ):
            found.append(
                f"{name}: tombstoned rows {tombstoned[:8]} are not the journal's "
                f"deletes {deletes[:8]} plus the dead rows {dead[:8]}, disjoint "
                "and in range"
            )

        # Each updated row's head is its last journal update.
        updates = np.flatnonzero(kind == UPDATE)
        referenced = journal.delta[updates].tolist()
        for row, pos in dict(zip(rows[updates].tolist(), updates.tolist())).items():
            if row >= mvcc.num_rows or mvcc._head[row] != pos:
                found.append(f"{name}: row {row} head is not its last journal update")
                break

        # Delta rows: one per update entry, allocated, and nothing else is.
        allocated = [d for d in set(referenced) if mvcc.delta.is_allocated(d)]
        if len(allocated) != len(referenced):
            found.append(f"{name}: journal delta rows are shared or unallocated")
        leaked = mvcc.delta.allocated_rows - len(allocated)
        if leaked:
            found.append(
                f"{name}: {leaked} allocated delta row(s) unreferenced by the journal"
            )
        return found

    # ------------------------------------------------------------------
    # Snapshot invariants
    # ------------------------------------------------------------------
    def _check_snapshot(self, name: str, runtime) -> List[str]:
        found: List[str] = []
        mvcc = runtime.mvcc
        snap = runtime.snapshots
        snap_data = snap.visible_data_rows()
        snap_delta = snap.visible_delta_rows()

        # Rebuild both bitmaps from scratch: the base state (what the
        # constructor or the last defragmentation established) plus a
        # one-change-at-a-time replay of the journal up to the snapshot
        # horizon. Inserts newer than the last compaction are all still
        # in the journal, so the base row count is recoverable.
        inserts = int(np.count_nonzero(mvcc.journal.kind == INSERT))
        data = np.zeros(len(snap_data), dtype=bool)
        data[: mvcc.num_rows - inserts] = True
        data[np.flatnonzero(~mvcc.alive_at(-1))] = False
        delta = np.zeros(len(snap_delta), dtype=bool)
        changes = mvcc.log_between(-1, snap.last_snapshot_ts).changes()
        for row, version, weight in zip(*(c.tolist() for c in changes)):
            if version < 0:
                data[row] = weight > 0
            else:
                delta[version] = weight > 0

        if not np.array_equal(data, snap_data):
            diff = int(np.sum(data != snap_data))
            found.append(
                f"{name}: data bitmap disagrees with journal rebuild in {diff} bit(s)"
            )
        if not np.array_equal(delta, snap_delta):
            diff = int(np.sum(delta != snap_delta))
            found.append(
                f"{name}: delta bitmap disagrees with journal rebuild in {diff} bit(s)"
            )

        # Independent cross-check: the per-row heads must describe the
        # same snapshot the incremental journal replay maintains.
        idx_data, idx_delta = mvcc.visible_refs_at(snap.last_snapshot_ts, len(snap_delta))
        if not np.array_equal(idx_data, snap_data):
            diff = int(np.sum(idx_data != snap_data))
            found.append(
                f"{name}: data bitmap disagrees with the packed visibility "
                f"index in {diff} bit(s)"
            )
        if not np.array_equal(idx_delta, snap_delta):
            diff = int(np.sum(idx_delta != snap_delta))
            found.append(
                f"{name}: delta bitmap disagrees with the packed visibility "
                f"index in {diff} bit(s)"
            )

        # Every device's packed copy in simulated DRAM must mirror the in-memory
        # bitmap over the whole region, tails included (stores cover byte ranges).
        storage = runtime.storage
        for region, bits in ((Region.DATA, snap_data), (Region.DELTA, snap_delta)):
            want = self._packed(bits)
            copies = [storage.read_bitmap(region, d) for d in range(storage.rank.num_devices)]
            devices = [d for d, copy in enumerate(copies) if not np.array_equal(copy, want)]
            if devices:
                found.append(
                    f"{name}: stored {region} bitmap copy on device(s) {devices} "
                    "diverges from the in-memory bitmap"
                )
        return found

    # ------------------------------------------------------------------
    # Index invariants
    # ------------------------------------------------------------------
    def _check_index(self, name: str, runtime) -> List[str]:
        index = runtime.index
        if index is None:
            return []
        ts = self.engine.db.oracle.read_timestamp()
        rows = np.flatnonzero(runtime.mvcc.alive_at(ts))
        keys = runtime.keys(runtime.storage.read_rows(Region.DATA, rows, runtime.key_columns))
        # Every live row's entry present, and nothing else: then the
        # index is exactly {key: row} (two rows sharing a key cannot both
        # be present). Checked without copying the index.
        entries = index.items()
        missing = sum((key, row) not in entries for key, row in zip(keys, rows.tolist()))
        if not missing and len(index) == len(rows):
            return []
        duplicate = len(keys) - len(set(keys))
        stale = len(index) - (len(rows) - missing)
        return [
            f"{name}: index {index.name!r} holds {len(index)} keys for {len(rows)} "
            f"live rows at ts {ts} ({duplicate} duplicate keys, {missing} rows "
            f"without their entry, {stale} other entries)"
        ]

    @staticmethod
    def _packed(bits: np.ndarray) -> np.ndarray:
        nbytes = max(1, ceil_div(len(bits), 8))
        packed = np.packbits(bits.astype(np.uint8), bitorder="little")
        out = np.zeros(nbytes, dtype=np.uint8)
        out[: len(packed)] = packed
        return out
