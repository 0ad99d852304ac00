"""Functional model of DRAM devices and banks.

A :class:`Device` is one DRAM chip holding a flat byte array, partitioned
into :class:`Bank` views. PIM units attach to banks (one unit per bank in
the UPMEM-like configuration) and access them locally — the IDE dimension
of the paper's two-dimensional access. Inside a
:class:`~repro.pim.memory.Rank` the array is one row of the rank's byte
matrix, so the same bytes are reachable across devices (ADE) as a column
slice.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import MemoryError_

__all__ = ["Bank", "Device"]


class Bank:
    """A contiguous byte range of one device, accessible by one PIM unit.

    Banks can be *locked* by the memory controller during a PIM load phase
    (bank access control handed over to the PIM unit, §6.2); CPU accesses
    to a locked bank must wait, which the timing layer accounts for.
    """

    def __init__(self, device: "Device", index: int, start: int, size: int) -> None:
        self.device = device
        self.index = index
        self.start = start
        self.size = size
        #: The memory controller this bank's unit answers to, if any.
        self.controller = None

    @property
    def locked(self) -> bool:
        """Whether the controller has handed this bank to its PIM unit."""
        return self.controller is not None and self.controller.banks_locked

    def read(self, offset: int, nbytes: int) -> np.ndarray:
        """Read ``nbytes`` starting at ``offset`` within this bank."""
        self._check(offset, nbytes)
        return self.device.read(self.start + offset, nbytes)

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise MemoryError_(
                f"bank {self.index} access [{offset}, {offset + nbytes}) "
                f"out of range (size {self.size})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "locked" if self.locked else "unlocked"
        return f"Bank(index={self.index}, size={self.size}, {state})"


class Device:
    """One DRAM chip: a flat byte array split into equal banks.

    ``data`` is the backing array — a rank passes row ``index`` of its
    byte matrix; a stand-alone device allocates its own.
    """

    def __init__(
        self,
        index: int,
        size: int,
        num_banks: int = 8,
        data: Optional[np.ndarray] = None,
    ) -> None:
        if size <= 0:
            raise MemoryError_(f"device size must be positive, got {size}")
        if num_banks <= 0 or size % num_banks != 0:
            raise MemoryError_(
                f"device size {size} must be a positive multiple of "
                f"num_banks {num_banks}"
            )
        self.index = index
        self.size = size
        if data is None:
            data = np.zeros(size, dtype=np.uint8)
        elif data.shape != (size,) or data.dtype != np.uint8:
            raise MemoryError_(
                f"device {index} backing array must be {size} uint8 bytes, "
                f"got {data.dtype} {data.shape}"
            )
        self.data = data
        bank_size = size // num_banks
        self.banks: List[Bank] = [
            Bank(self, b, b * bank_size, bank_size) for b in range(num_banks)
        ]

    @property
    def bank_size(self) -> int:
        """Capacity of each bank in bytes."""
        return self.banks[0].size

    def read(self, offset: int, nbytes: int) -> np.ndarray:
        """Read ``nbytes`` from the device starting at ``offset``."""
        self._check(offset, nbytes)
        return self.data[offset : offset + nbytes].copy()

    def write(self, offset: int, data: np.ndarray) -> None:
        """Write a byte array into the device starting at ``offset``."""
        data = np.asarray(data, dtype=np.uint8)
        self._check(offset, len(data))
        self.data[offset : offset + len(data)] = data

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise MemoryError_(
                f"device {self.index} access [{offset}, {offset + nbytes}) "
                f"out of range (size {self.size})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Device(index={self.index}, size={self.size}, banks={len(self.banks)})"
