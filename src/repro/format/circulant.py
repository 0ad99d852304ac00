"""Block-circulant data placement (§4.2, Fig. 5).

Rows are grouped into blocks of ``block_rows`` (B = 1024 in the paper).
Within block ``b`` the device slots of every part are rotated by ``b mod
d``: slot ``i`` of a row in block ``b`` is stored on device ``(i + b) mod
d``. Every column is thereby spread evenly over all devices, so scanning
any single column keeps every PIM unit busy instead of hammering one
"hotspot" device (Fig. 5a vs. 5b).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LayoutError
from repro.units import ceil_div

__all__ = ["BlockCirculantPlacement"]


@dataclass(frozen=True)
class BlockCirculantPlacement:
    """Maps (row, slot) to a physical device with per-block rotation.

    ``block_rows`` should at least cover a DRAM row buffer so scans keep a
    high row-hit rate (§4.2); the paper uses 1024.
    """

    num_devices: int
    block_rows: int = 1024
    #: Disable to get the naive placement of Fig. 5a (each column pinned
    #: to one device) — the ablation baseline.
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.num_devices <= 0:
            raise LayoutError("num_devices must be positive")
        if self.block_rows <= 0:
            raise LayoutError("block_rows must be positive")

    def block_of(self, row: int) -> int:
        """Block index containing ``row``."""
        self._check_row(row)
        return row // self.block_rows

    def rotation(self, row: int) -> int:
        """Rotation applied to the row's block."""
        return self.rotation_of_block(self.block_of(row))

    def rotation_of_block(self, block: int) -> int:
        """Rotation applied to a block index (0 when disabled)."""
        if block < 0:
            raise LayoutError(f"negative block {block}")
        return block % self.num_devices if self.enabled else 0

    def device_for(self, row: int, slot_index: int) -> int:
        """Physical device storing slot ``slot_index`` of ``row``."""
        self._check_slot(slot_index)
        return (slot_index + self.rotation(row)) % self.num_devices

    def scan_parallelism(self, num_rows: int) -> float:
        """Fraction of devices kept busy when scanning one column.

        Without rotation a column lives on one device (1/d); with
        block-circulant placement a scan over ``num_rows`` rows touches
        ``min(d, num_blocks)`` devices.
        """
        if num_rows <= 0:
            return 0.0
        if not self.enabled:
            return 1.0 / self.num_devices
        blocks = ceil_div(num_rows, self.block_rows)
        return min(self.num_devices, blocks) / self.num_devices

    def _check_row(self, row: int) -> None:
        if row < 0:
            raise LayoutError(f"negative row {row}")

    def _check_slot(self, index: int) -> None:
        if index < 0 or index >= self.num_devices:
            raise LayoutError(
                f"slot/device index {index} out of range [0, {self.num_devices})"
            )
