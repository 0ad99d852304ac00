"""Durability: write-ahead log, leveled checkpoint store, crash recovery.

The engine itself is an in-memory simulator; this package gives it a
real on-disk durability story so that "everything is lost on process
death" stops being true:

* :mod:`repro.wal.log` — an append-only, CRC-framed redo log of
  committed transactions. Appends are fsync'd per commit and charged
  through the §6.3 flush cost model (``flush_per_line_ns`` per written
  line + ``commit_barrier_ns``), so enabling durability shows up in the
  simulated commit latency exactly like the clflush+barrier it models.
* :mod:`repro.wal.store` — an LSM-style leveled store of checkpoint
  segments (folded redo state + per-table liveness bitmaps) behind an
  atomically renamed manifest, with newest-wins compaction.
* :mod:`repro.wal.manager` — the :class:`DurabilityManager` glue an
  engine gets from :meth:`~repro.core.engine.PushTapEngine.enable_durability`.
* :mod:`repro.wal.recovery` — rebuilds an engine by applying checkpoint
  segments and replaying the WAL tail at the recorded timestamps.

The crash sweep that holds this package to its contract — inject a
``crash_*`` fault, recover, assert invariants plus bit-identical OLAP
results against a never-crashed reference run — is the ``crash``
workload of :mod:`repro.faults.sweep`
(``python -m repro.experiments fault-sweep --workload crash``).
"""

from repro.wal.log import WriteAheadLog
from repro.wal.manager import DurabilityManager
from repro.wal.recovery import RecoveryResult, recover
from repro.wal.store import LeveledStore

__all__ = [
    "WriteAheadLog",
    "LeveledStore",
    "DurabilityManager",
    "RecoveryResult",
    "recover",
]
