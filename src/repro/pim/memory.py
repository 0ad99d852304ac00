"""Rank-level memory with two-dimensional access.

A :class:`Rank` groups ``d`` devices and exposes the two access views the
paper builds on (Fig. 1b). Its bytes are one ``(devices × device_bytes)``
matrix, :attr:`Rank.mem`, and the two views are its two axes:

* **ADE (across devices)** — the CPU's view. One access touches the
  *same local address on every device* (§4.2, Fig. 6a), i.e. a column
  slice ``mem[:, a:a+n]``; the storage layer moves rows, blocks and
  bitmap copies this way. The linear interleaved address space — striped
  across devices at the interleave granularity (8 B for DIMM) — is
  :meth:`Rank.read_interleaved` / :meth:`Rank.write_interleaved`.
* **IDE (inside device)** — each PIM unit reads its own device/bank
  locally: a row slice ``mem[i, a:a+n]``, which is ``devices[i].data``,
  via :meth:`Rank.device_read` / :meth:`Rank.device_write`.

A third view, :attr:`Rank.flat`, models no access: it is ``mem`` as one
``memoryview`` (byte ``local`` of device ``i`` is ``flat[i * device_bytes +
local]``), which the storage layer's one-row reader and writer slice per
column run, at a fraction of the cost of indexing the matrix.

The address mapping is the standard low-order interleave: interleaved
address ``a`` lives on device ``(a // g) % d`` at local offset
``(a // (g * d)) * g + (a % g)``.
"""

from __future__ import annotations

import mmap
from typing import List, Tuple

import numpy as np

from repro.core.config import DeviceGeometry
from repro.errors import MemoryError_
from repro.pim.device import Device

__all__ = ["Rank", "byte_runs", "interleaved_to_local", "local_to_interleaved"]


def byte_runs(matrix: np.ndarray, nbytes: int, count: int = 1, stride: int = 0) -> np.ndarray:
    """Every run of ``count`` pieces of ``nbytes`` bytes, ``stride`` apart,
    in the rows of a C-contiguous byte matrix.

    Element ``[row, start]`` is the run starting at byte ``start`` of
    ``row``, as ``count`` opaque ``nbytes``-byte items — a view, so
    indexing it with arrays of rows and starts gathers (or stores) many
    runs at once, one item per piece instead of one index per byte, and
    NumPy checks every start against the last run that fits in a row.
    """
    rows, size = matrix.shape
    span = (count - 1) * stride + nbytes
    return np.ndarray(
        (rows, size - span + 1, count),
        dtype=f"V{nbytes}",
        buffer=matrix,
        strides=(size, 1, stride),
    )


def interleaved_to_local(addr: int, granularity: int, num_devices: int) -> Tuple[int, int]:
    """Map an interleaved (CPU-view) address to ``(device, local_offset)``."""
    if addr < 0:
        raise MemoryError_(f"negative address {addr}")
    stripe = addr // granularity
    device = stripe % num_devices
    local = (stripe // num_devices) * granularity + (addr % granularity)
    return device, local


def local_to_interleaved(device: int, local: int, granularity: int, num_devices: int) -> int:
    """Inverse of :func:`interleaved_to_local`."""
    if device < 0 or device >= num_devices:
        raise MemoryError_(f"device {device} out of range [0, {num_devices})")
    if local < 0:
        raise MemoryError_(f"negative local offset {local}")
    stripe = (local // granularity) * num_devices + device
    return stripe * granularity + (local % granularity)


class Rank:
    """A rank of interleaved devices with PIM-style local access."""

    def __init__(self, geometry: DeviceGeometry, device_bytes: int) -> None:
        if device_bytes % geometry.interleave_granularity != 0:
            raise MemoryError_(
                "device_bytes must be a multiple of the interleave granularity"
            )
        if device_bytes % geometry.banks_per_device != 0:
            raise MemoryError_("device_bytes must be a multiple of banks_per_device")
        self.geometry = geometry
        #: All bytes of the rank: row ``i`` is device ``i``'s array. A
        #: private anonymous mapping — zero pages appear on first touch,
        #: as with ``np.zeros``, but without the huge-page advice NumPy
        #: gives large arrays: a rank image is sparse (regions are sized
        #: for inserts and deltas that mostly never come), and 2 MB pages
        #: make most of its resident set untouched zeroes.
        self.mem = np.frombuffer(
            mmap.mmap(-1, geometry.devices_per_rank * device_bytes, access=mmap.ACCESS_COPY),
            dtype=np.uint8,
        ).reshape(geometry.devices_per_rank, device_bytes)
        #: ``mem`` as one 1-D ``memoryview`` (format "B"); ``mem`` is never rebound.
        self.flat = memoryview(self.mem).cast("B")
        self.devices: List[Device] = [
            Device(i, device_bytes, geometry.banks_per_device, data=self.mem[i])
            for i in range(geometry.devices_per_rank)
        ]

    @property
    def num_devices(self) -> int:
        """Number of devices (the ADE width)."""
        return len(self.devices)

    @property
    def granularity(self) -> int:
        """Interleave granularity in bytes."""
        return self.geometry.interleave_granularity

    @property
    def size(self) -> int:
        """Total interleaved address space of the rank."""
        return self.mem.size

    # ------------------------------------------------------------------
    # ADE view (CPU interleaved access)
    # ------------------------------------------------------------------
    def read_interleaved(self, addr: int, nbytes: int) -> np.ndarray:
        """Read ``nbytes`` from the CPU's interleaved address space."""
        return self.mem[self._interleaved_index(addr, nbytes)]

    def write_interleaved(self, addr: int, data: np.ndarray) -> None:
        """Write ``data`` into the CPU's interleaved address space."""
        data = np.asarray(data, dtype=np.uint8)
        self.mem[self._interleaved_index(addr, len(data))] = data

    def _interleaved_index(self, addr: int, nbytes: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(device, local)`` of every byte of an interleaved access —
        :func:`interleaved_to_local` over the whole range."""
        self._check(addr, nbytes)
        byte = np.arange(addr, addr + nbytes)
        stripe = byte // self.granularity
        return (
            stripe % self.num_devices,
            stripe // self.num_devices * self.granularity + byte % self.granularity,
        )

    # ------------------------------------------------------------------
    # IDE view (PIM local access)
    # ------------------------------------------------------------------
    def device_read(self, device: int, local: int, nbytes: int) -> np.ndarray:
        """Read ``nbytes`` locally from one device (PIM view)."""
        return self.devices[device].read(local, nbytes)

    def device_write(self, device: int, local: int, data: np.ndarray) -> None:
        """Write ``data`` locally to one device (PIM view)."""
        self.devices[device].write(local, data)

    def bank_of(self, device: int, local: int):
        """Return the bank of ``device`` containing local byte ``local``."""
        return self.devices[device].bank_of(local)

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or nbytes < 0 or addr + nbytes > self.size:
            raise MemoryError_(
                f"interleaved access [{addr}, {addr + nbytes}) out of range "
                f"(rank size {self.size})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rank(devices={self.num_devices}, size={self.size})"
