"""Hash index (§7.1: "We use the hash index in DBX1000 to speed up the
transaction and snapshotting during analytical queries").

A :class:`HashIndex` maps a key tuple to a row id and models the memory
cost of a probe: one bucket-header access plus one entry access (two
cache lines), growing with chain length under collisions.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, ItemsView, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TransactionError

__all__ = ["HashIndex"]


class HashIndex:
    """A unique hash index over one table."""

    #: Cache lines of a minimal probe: bucket header + entry. An insert or
    #: remove touches as many.
    BASE_PROBE_LINES = 2

    def __init__(self, name: str, num_buckets: int = 4096) -> None:
        if num_buckets <= 0:
            raise TransactionError("num_buckets must be positive")
        self.name = name
        self.num_buckets = num_buckets
        self._map: Dict[Hashable, int] = {}
        self._bucket_sizes: List[int] = [0] * num_buckets

    def __len__(self) -> int:
        return len(self._map)

    def _bucket(self, key: Hashable) -> int:
        return hash(key) % self.num_buckets

    def insert(self, key: Hashable, row_id: int) -> None:
        """Insert a unique key."""
        if key in self._map:
            raise TransactionError(f"index {self.name!r}: duplicate key {key!r}")
        bucket = self._bucket(key)
        self._map[key] = row_id
        self._bucket_sizes[bucket] += 1

    def insert_many(self, keys: Sequence[Hashable], row_ids: Iterable[int]) -> None:
        """Insert unique ``keys`` → ``row_ids`` (the bulk load), all or
        nothing: a duplicate raises as :meth:`insert` does, naming the
        first one, and leaves the index as it was."""
        new = dict(zip(keys, row_ids))
        if len(new) < len(keys) or not self._map.keys().isdisjoint(new):
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
        # Each key's _bucket: NumPy's % takes the divisor's sign, as Python's.
        hashes = np.fromiter(map(hash, new), np.int64, len(new))
        counts = np.bincount(hashes % self.num_buckets, minlength=self.num_buckets)
        self._bucket_sizes = (counts + self._bucket_sizes).tolist()

    def probe(self, key: Hashable) -> Tuple[Optional[int], int]:
        """Look up a key: ``(row id, lines touched)``, the row id None
        when the key is absent; the lines grow with the bucket's chain."""
        chain = self._bucket_sizes[self._bucket(key)]
        return self._map.get(key), self.BASE_PROBE_LINES + max(0, chain - 1)

    def remove(self, key: Hashable) -> None:
        """Remove a key."""
        if key not in self._map:
            raise TransactionError(f"index {self.name!r}: missing key {key!r}")
        bucket = self._bucket(key)
        del self._map[key]
        self._bucket_sizes[bucket] -= 1

    def items(self) -> ItemsView[Hashable, int]:
        """Every ``(key, row id)`` entry."""
        return self._map.items()
