"""MVCC metadata: region tags and the version-metadata size (§2.3, §5.1).

In the paper every row version carries a *write timestamp* (the
transaction that created it), a *read timestamp* (most recent reader),
and a *pointer* to the previous version. The version journal
(:mod:`repro.mvcc.manager`) keeps the write timestamp and the pointer;
one writer runs at a time, so no read timestamp could decide a conflict
and none is kept. The journal names a version's location as
``(row_id, delta)``: ``delta ≥ 0`` is a delta-region row, −1 the row's
own data slot. Metadata lives in CPU memory (PIM units never need it,
§5.1); its modelled DRAM footprint is :data:`METADATA_BYTES` per entry,
the ``m = 16`` of the defragmentation cost model (§5.3).
"""

from __future__ import annotations

__all__ = ["Region", "DATA_SLOT", "METADATA_BYTES"]

#: Modelled metadata size per version entry (the paper's m = 16 B).
METADATA_BYTES = 16

#: The ``delta`` of a version that lives in its row's data slot.
DATA_SLOT = -1


class Region:
    """Region tags of the block APIs (scans, bitmaps, defragmentation)."""

    DATA = "data"
    DELTA = "delta"
