"""Timestamp allocation for MVCC.

A single monotonically increasing logical clock hands out transaction
timestamps (DBx1000-style timestamp-ordering MVCC, §2.3). Analytical
queries take a *read timestamp* without consuming a new write timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TimestampOracle"]


@dataclass
class TimestampOracle:
    """Monotonic logical-timestamp source."""

    _next: int = field(default=1)

    def next_timestamp(self) -> int:
        """Allocate a fresh write timestamp."""
        ts = self._next
        self._next += 1
        return ts

    def read_timestamp(self) -> int:
        """Current read horizon: sees everything committed so far."""
        return self._next - 1

    def advance_to(self, ts: int) -> None:
        """Fast-forward so ``read_timestamp() >= ts``; never rewinds.

        Used by crash recovery, which applies checkpoint segments and
        replays WAL records at their *recorded* timestamps and must leave
        the oracle at the recovered commit horizon.
        """
        self._next = max(self._next, int(ts) + 1)
