"""Data and delta regions organized in rotation-aligned blocks (§5.1, Fig. 6a).

The data region holds the original version of every row; newer versions go
to the delta region. Both regions are divided into blocks of
``block_rows`` rows, and block ``b`` carries rotation ``b mod d`` under the
block-circulant placement. A new version of a row must land in a delta
block **with the same rotation** as the row's data block, so that during
defragmentation each PIM unit can copy the version back device-locally.

:class:`DeltaAllocator` maintains per-rotation free lists of delta slots
and grows the delta region block-by-block (rotations are assigned by block
index, so growing for rotation ``k`` may require skipping ahead to the
next block index ``≡ k (mod d)``; skipped blocks become available to their
own rotations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.errors import TransactionError

__all__ = ["DataRegion", "DeltaAllocator"]


@dataclass(frozen=True)
class DataRegion:
    """The fixed data region: ``num_rows`` rows in rotation-tagged blocks."""

    num_rows: int
    block_rows: int
    num_devices: int

    def __post_init__(self) -> None:
        if self.num_rows < 0:
            raise TransactionError("num_rows must be non-negative")
        if self.block_rows <= 0 or self.num_devices <= 0:
            raise TransactionError("block_rows and num_devices must be positive")

    def block_of(self, row: int) -> int:
        """Block index of a data row."""
        self._check(row)
        return row // self.block_rows

    def rotation_of(self, row: int) -> int:
        """Circulant rotation of a data row's block."""
        return self.block_of(row) % self.num_devices

    def _check(self, row: int) -> None:
        if row < 0 or row >= self.num_rows:
            raise TransactionError(f"data row {row} out of range [0, {self.num_rows})")


class DeltaAllocator:
    """Allocates delta-region rows grouped by rotation.

    ``capacity_blocks`` bounds the delta region (the engine sizes it from
    the defragmentation period); allocation beyond capacity raises, which
    in the full engine triggers a forced defragmentation.
    """

    def __init__(self, block_rows: int, num_devices: int, capacity_blocks: int) -> None:
        if block_rows <= 0 or num_devices <= 0 or capacity_blocks <= 0:
            raise TransactionError("block_rows/num_devices/capacity must be positive")
        self.block_rows = block_rows
        self.num_devices = num_devices
        self.capacity_blocks = capacity_blocks
        self._next_block = 0
        self._free: Dict[int, List[int]] = {r: [] for r in range(num_devices)}
        # Allocated rows, one set per rotation.
        self._allocated: List[Set[int]] = [set() for _ in range(num_devices)]

    @property
    def capacity_rows(self) -> int:
        """Maximum delta rows the region can hold."""
        return self.capacity_blocks * self.block_rows

    @property
    def allocated_rows(self) -> int:
        """Currently allocated delta rows."""
        return sum(map(len, self._allocated))

    @property
    def high_water_rows(self) -> int:
        """Delta rows spanned by materialized blocks (region footprint)."""
        return self._next_block * self.block_rows

    def rotation_of(self, delta_index: int) -> int:
        """Rotation of a delta row (by its block index)."""
        if delta_index < 0:
            raise TransactionError(f"negative delta index {delta_index}")
        return (delta_index // self.block_rows) % self.num_devices

    def allocate(self, rotation: int) -> int:
        """Allocate one delta row with the requested rotation.

        Raises :class:`TransactionError` when the region is full — the
        engine treats that as "defragmentation overdue".
        """
        if rotation < 0 or rotation >= self.num_devices:
            raise TransactionError(f"rotation {rotation} out of range")
        if not self._free[rotation]:
            self._grow_until(rotation)
        index = self._free[rotation].pop()
        self._allocated[rotation].add(index)
        return index

    def release(self, delta_index: int) -> None:
        """Return a delta row to its rotation's free list."""
        if not self.is_allocated(delta_index):
            raise TransactionError(f"delta row {delta_index} is not allocated")
        rotation = self.rotation_of(delta_index)
        self._allocated[rotation].remove(delta_index)
        self._free[rotation].append(delta_index)

    def release_all(self) -> int:
        """Free every allocated row (after defragmentation); returns count.

        Each rotation's rows join its free list in ascending order."""
        count = self.allocated_rows
        for rotation, rows in enumerate(self._allocated):
            self._free[rotation].extend(sorted(rows))
            rows.clear()
        return count

    def is_allocated(self, delta_index: int) -> bool:
        """Whether a delta row is currently allocated."""
        return delta_index in self._allocated[delta_index // self.block_rows % self.num_devices]

    def _grow_until(self, rotation: int) -> None:
        """Materialize blocks until ``rotation`` has a free row."""
        while not self._free[rotation]:
            if self._next_block >= self.capacity_blocks:
                raise TransactionError(
                    f"delta region full ({self.capacity_blocks} blocks); "
                    "defragmentation required"
                )
            block = self._next_block
            self._next_block += 1
            block_rotation = block % self.num_devices
            start = block * self.block_rows
            rows = list(range(start + self.block_rows - 1, start - 1, -1))
            self._free[block_rotation].extend(rows)
