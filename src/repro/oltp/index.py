"""Hash index (§7.1: "We use the hash index in DBX1000 to speed up the
transaction and snapshotting during analytical queries").

A :class:`HashIndex` maps a key to a row id. It models a hash
table sized to its table's rows (load factor ≤ 1), so every probe,
insert and remove touches one bucket header plus one entry:
:data:`PROBE_LINES` cache lines, at every scale.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Hashable, Iterable, ItemsView, Optional, Sequence

from repro.errors import TransactionError

__all__ = ["HashIndex", "PROBE_LINES"]

#: Cache lines of one index operation: bucket header + entry.
PROBE_LINES = 2


class HashIndex:
    """A unique hash index over one table. ``pack``, if set (by a table
    whose keys pack several columns into one int), turns a probed tuple
    into the stored key."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._map: Dict[Hashable, int] = {}
        self.pack: Optional[Callable[[tuple], Optional[Hashable]]] = None

    def __len__(self) -> int:
        return len(self._map)

    @property
    def nbytes(self) -> int:
        """Host bytes: the dict plus each key and row-id object (``sys.getsizeof``)."""
        size = sys.getsizeof
        return size(self._map) + sum(map(size, self._map)) + sum(map(size, self._map.values()))

    def insert(self, key: Hashable, row_id: int) -> None:
        """Insert a unique key."""
        if key in self._map:
            raise TransactionError(f"index {self.name!r}: duplicate key {key!r}")
        self._map[key] = row_id

    def insert_many(self, keys: Sequence[Hashable], row_ids: Iterable[int]) -> None:
        """Insert unique ``keys`` → ``row_ids`` (the bulk load), all or
        nothing: a duplicate raises as :meth:`insert` does, naming the
        first one, and leaves the index as it was."""
        new = dict(zip(keys, row_ids))
        # Two key views: isdisjoint walks the smaller side (none, on a load).
        if len(new) < len(keys) or not self._map.keys().isdisjoint(new.keys()):
            seen = set(self._map)
            for key in keys:
                if key in seen:
                    raise TransactionError(
                        f"index {self.name!r}: duplicate key {key!r}"
                    )
                seen.add(key)
        if self._map:
            self._map.update(new)
        else:
            self._map = new

    def probe(self, key: Hashable) -> Optional[int]:
        """Look up a key: its row id, or None when it is absent. A tuple
        goes through :attr:`pack` first, if the index has one."""
        if type(key) is tuple and self.pack is not None:
            key = self.pack(key)
        return self._map.get(key)

    def remove(self, key: Hashable) -> None:
        """Remove a key."""
        if key not in self._map:
            raise TransactionError(f"index {self.name!r}: missing key {key!r}")
        del self._map[key]

    def items(self) -> ItemsView[Hashable, int]:
        """Every ``(key, row id)`` entry."""
        return self._map.items()
