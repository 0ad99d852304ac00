"""Exception hierarchy for the PUSHtap reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class. Subclasses are grouped by subsystem.
"""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """A system configuration is inconsistent or out of supported range."""


class LayoutError(ReproError):
    """A data layout could not be generated or is used inconsistently."""


class SchemaError(ReproError):
    """A table schema is malformed (duplicate columns, bad widths, ...)."""


class MemoryError_(ReproError):
    """A simulated memory access is out of bounds or misaligned.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`MemoryError`.
    """


class ProtocolError(ReproError):
    """A launch/poll request payload is malformed (Fig. 7b encoding)."""


class TransactionError(ReproError):
    """A transaction could not be executed (conflict, missing row, ...)."""


class TransactionAborted(TransactionError):
    """Raised when concurrency control aborts a transaction."""


class QueryError(ReproError):
    """An analytical query plan is malformed or references unknown data."""


class SnapshotError(ReproError):
    """Snapshot bitmaps are inconsistent with MVCC metadata."""


class DefragError(ReproError):
    """Defragmentation failed or was invoked in an invalid state."""


class InvariantViolation(ReproError):
    """A cross-subsystem consistency invariant failed to hold.

    Raised by the fault-injection harness's invariant checker when an
    injected fault corrupted state instead of being absorbed gracefully.
    """


class WALError(ReproError):
    """The write-ahead log or leveled store is corrupt or inconsistent.

    A torn tail (partial final record after a crash) is *not* an error —
    recovery truncates it. This is raised for corruption that cannot be
    explained by a single interrupted append, e.g. a bad CRC in the
    middle of the log or a manifest referencing a missing segment.
    """


class ParallelExecutionError(ReproError):
    """A parallel shard worker diverged from the coordinator's plan.

    Raised when a worker observes an outcome the plan pass did not
    predict (e.g. a single-shard transaction aborting, or a prepare
    voting no) — the parallel run cannot be merged deterministically
    and must not silently differ from ``jobs=1``.
    """


def on_shard(shard: int, call: Callable[..., T], *args) -> T:
    """``call(*args)``, re-raising a :class:`ReproError` as its own type
    with ``shard N:`` before its message: a cluster's errors name the
    shard engine they happened on, in process or in a worker."""
    try:
        return call(*args)
    except ReproError as exc:
        raise type(exc)(f"shard {shard}: {exc}") from None


class SimulatedCrash(ReproError):
    """An injected process crash (fault-harness ``crash_*`` hooks).

    Deliberately derives from :class:`ReproError` but not from
    :class:`TransactionError`: the OLTP engine must *not* treat it as an
    abort and roll back — a crash kills the process with whatever state
    has (or has not) reached the write-ahead log.
    """
