"""MVCC metadata: row references and the version-metadata size (§2.3, §5.1).

Every row version carries a *write timestamp* (the transaction that
created it), a *read timestamp* (most recent reader), and a *pointer* to
the previous version — the columns of the version journal
(:mod:`repro.mvcc.manager`). Metadata lives in CPU memory (PIM units
never need it, §5.1); its modelled DRAM footprint is
:data:`METADATA_BYTES` per entry, the ``m = 16`` of the defragmentation
cost model (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TransactionError

__all__ = ["Region", "RowRef", "METADATA_BYTES"]

#: Modelled metadata size per version entry (the paper's m = 16 B).
METADATA_BYTES = 16


class Region:
    """Region tags for row references."""

    DATA = "data"
    DELTA = "delta"


@dataclass(frozen=True)
class RowRef:
    """Location of one row version: region + row index within it."""

    region: str
    index: int

    def __post_init__(self) -> None:
        if self.region not in (Region.DATA, Region.DELTA):
            raise TransactionError(f"unknown region {self.region!r}")
        if self.index < 0:
            raise TransactionError(f"negative row index {self.index}")
