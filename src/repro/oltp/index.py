"""Hash index (§7.1: "We use the hash index in DBX1000 to speed up the
transaction and snapshotting during analytical queries").

A :class:`HashIndex` maps a key tuple to a row id and models the memory
cost of a probe: one bucket-header access plus one entry access (two
cache lines), growing with chain length under collisions.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, Iterable, Iterator, Optional, Sequence

from repro.errors import TransactionError

__all__ = ["HashIndex", "ProbeResult"]


class ProbeResult:
    """Outcome of one index probe: the row id and the lines touched."""

    __slots__ = ("row_id", "lines")

    def __init__(self, row_id: Optional[int], lines: int) -> None:
        self.row_id = row_id
        self.lines = lines

    @property
    def found(self) -> bool:
        """Whether the key was present."""
        return self.row_id is not None


class HashIndex:
    """A unique hash index over one table."""

    #: Cache lines of a minimal probe: bucket header + entry.
    BASE_PROBE_LINES = 2

    def __init__(self, name: str, num_buckets: int = 4096) -> None:
        if num_buckets <= 0:
            raise TransactionError("num_buckets must be positive")
        self.name = name
        self.num_buckets = num_buckets
        self._map: Dict[Hashable, int] = {}
        self._bucket_sizes: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._map)

    def _bucket(self, key: Hashable) -> int:
        return hash(key) % self.num_buckets

    def insert(self, key: Hashable, row_id: int) -> int:
        """Insert a unique key; returns the lines touched."""
        if key in self._map:
            raise TransactionError(f"index {self.name!r}: duplicate key {key!r}")
        bucket = self._bucket(key)
        self._map[key] = row_id
        self._bucket_sizes[bucket] = self._bucket_sizes.get(bucket, 0) + 1
        return self.BASE_PROBE_LINES

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
        self._map.update(new)
        sizes = self._bucket_sizes
        for bucket, count in Counter(map(self._bucket, new)).items():
            sizes[bucket] = sizes.get(bucket, 0) + count

    def probe(self, key: Hashable) -> ProbeResult:
        """Look up a key; cost grows with the bucket's chain length."""
        bucket = self._bucket(key)
        chain = self._bucket_sizes.get(bucket, 0)
        lines = self.BASE_PROBE_LINES + max(0, chain - 1)
        return ProbeResult(self._map.get(key), lines)

    def remove(self, key: Hashable) -> int:
        """Remove a key; returns the lines touched."""
        if key not in self._map:
            raise TransactionError(f"index {self.name!r}: missing key {key!r}")
        bucket = self._bucket(key)
        del self._map[key]
        self._bucket_sizes[bucket] -= 1
        return self.BASE_PROBE_LINES

    def keys(self) -> Iterator[Hashable]:
        """All indexed keys."""
        return iter(self._map)
