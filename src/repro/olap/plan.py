"""CPU-side glue for multi-column queries (§6.3).

Multi-column operations (aggregation with GROUP BY, hash join) need CPU
cooperation: merging per-block group dictionaries into global group ids,
combining filter masks, and exchanging hash buckets between banks. These
helpers do the functional work and report the CPU traffic they imply so
the engine can convert it to time.

Each helper runs once per scan, over the operators' scan arrays: one
entry per scanned row, the data rows then the delta rows
(:func:`repro.olap.operators.scan_rows`). Masks, group indices and join
results of scans over the same extents therefore line up row by row, and
a helper handed arrays of different lengths raises
:class:`~repro.errors.QueryError`. The CPU traffic is still counted per
block, as the units hand their results over.

The join is a semi-join, in each direction, on the staged key values of
both scans (:func:`hash_join`). It enumerates no ``(probe, build)``
pairs, so duplicate keys cost nothing extra, and needs no collision pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import QueryError
from repro.olap.operators import FilterOperation, GroupOperation, HashOperation, RegionRows
from repro.pim.pim_unit import distinct
from repro.units import ceil_div

__all__ = [
    "MergedGroups",
    "merge_group_blocks",
    "combine_masks",
    "masks_to_indices",
    "apply_mask_to_indices",
    "JoinResult",
    "hash_join",
]

#: Group index marking an invisible / filtered-out row.
INVALID_GROUP = 0xFFFF


@dataclass(frozen=True)
class MergedGroups:
    """Global group ids after the CPU merges per-block dictionaries:
    ``indices`` holds each scanned row's id into ``keys``."""

    keys: np.ndarray
    indices: np.ndarray
    cpu_bytes: int

    @property
    def num_groups(self) -> int:
        """Number of distinct group keys."""
        return len(self.keys)


def merge_group_blocks(group_op: GroupOperation) -> MergedGroups:
    """Merge a group scan's per-block dictionaries into global ids.

    Each row's local index is remapped through a global, sorted key
    dictionary; invisible rows keep :data:`INVALID_GROUP`.
    """
    dictionary, local = group_op.dictionary, group_op.indices
    keys = distinct(dictionary)
    if len(keys) >= INVALID_GROUP:
        raise QueryError(f"too many groups ({len(keys)}) for 2-byte indices")
    remap = np.searchsorted(keys, dictionary).astype(np.uint16)
    valid = local != INVALID_GROUP
    indices = np.full(len(local), INVALID_GROUP, dtype=np.uint16)
    indices[valid] = remap[group_op.starts[valid] + local[valid]]
    return MergedGroups(keys, indices, local.nbytes + dictionary.nbytes)


def _bitmap_bytes(rows: RegionRows, block_rows: int) -> int:
    """Bytes of a scan's per-block bitmaps: ⌈n/8⌉ for a block of n rows."""
    return sum(
        count // block_rows * ceil_div(block_rows, 8) + ceil_div(count % block_rows, 8)
        for count in (rows.data_rows, rows.delta_rows)
    )


def combine_masks(filters: Sequence[FilterOperation]) -> Tuple[np.ndarray, int]:
    """AND the masks of several filter scans over the same table and extents."""
    if not filters:
        raise QueryError("combine_masks needs at least one filter")
    first = filters[0]
    name = first.storage.layout.schema.name
    mask = first.mask.copy()
    for f in filters[1:]:
        if f.storage is not first.storage or f.rows != first.rows:
            raise QueryError(
                f"table {name!r}: cannot combine a filter over {first.rows} with one "
                f"over {f.rows} of table {f.storage.layout.schema.name!r}"
            )
        mask &= f.mask
    return mask, len(filters) * _bitmap_bytes(first.rows, first.storage.block_rows)


def masks_to_indices(mask: np.ndarray, group: int = 0) -> np.ndarray:
    """Turn a boolean mask into single-group aggregation indices.

    Matching rows get group ``group``; others :data:`INVALID_GROUP` —
    filtered aggregation without a GROUP BY is the one-group case.
    """
    return np.where(mask, np.uint16(group), np.uint16(INVALID_GROUP))


def apply_mask_to_indices(indices: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Invalidate group indices of rows a filter rejected."""
    if len(mask) != len(indices):
        raise QueryError(f"a mask of {len(mask)} rows for {len(indices)} group indices")
    return np.where(mask, indices.astype(np.uint16, copy=False), np.uint16(INVALID_GROUP))


@dataclass(frozen=True)
class JoinResult:
    """Outcome of a hash join between two scanned key columns.

    ``probe_mask`` marks which probe-side rows matched (usable as a
    filter for a follow-up aggregation); ``build_mask_out`` marks build
    rows with at least one probe match (semi-join the other way);
    ``matches`` counts the probe rows that matched — a probe row counts
    once however many build rows carry its key, so this is not the
    number of join pairs.
    """

    probe_mask: np.ndarray
    matches: int
    cpu_bytes: int
    pim_elements: int
    build_mask_out: np.ndarray

    @property
    def matched_build_rows(self) -> int:
        """Build rows with at least one probe match."""
        return int(self.build_mask_out.sum())


def hash_join(
    build: HashOperation,
    probe: HashOperation,
    build_mask: Optional[np.ndarray] = None,
) -> JoinResult:
    """Join two hash scans (§6.3 / [38]) as a semi-join over the staged keys.

    The CPU fetches both sides' hashes (``cpu_bytes``) and the PIM units
    match them bucket by bucket; ``pim_elements`` — the live rows of both
    sides — carries that modelled workload, which the engine converts to
    time at the join cycle cost. Which rows match is decided here on the
    staged key values, so the result is exact whatever the hashes
    collide on: a probe row matches when its key is among the live build
    keys, and a build row when its key is among the live probe keys.
    The bucket division itself is not materialised — equal keys have
    equal hashes and so share a bucket, hence dividing the hashes into
    buckets cannot change which rows match, only where the units would
    match them. That holds within one hash function only: both scans
    must have used the same one.

    ``build_mask`` optionally restricts the build side to rows passing
    an earlier filter over the same scan (e.g. Q9's item predicate).
    """
    if build.hash_function != probe.hash_function:
        raise QueryError(
            f"cannot join {build.column!r} hashed with function "
            f"{build.hash_function} to {probe.column!r} hashed with function "
            f"{probe.hash_function}: equal keys share a bucket only under one "
            "hash function"
        )
    # Hash 0 marks a row the snapshot hides.
    build_live = build.hashes != 0
    probe_live = probe.hashes != 0
    if build_mask is not None:
        if len(build_mask) != len(build_live):
            raise QueryError(
                f"table {build.storage.layout.schema.name!r}: {len(build_mask)} "
                f"build-mask rows for a scan of {len(build_live)} rows"
            )
        build_live &= build_mask
    probe_matched = probe_live & np.isin(probe.values, build.values[build_live])
    build_matched = build_live & np.isin(build.values, probe.values[probe_live])
    return JoinResult(
        probe_mask=probe_matched,
        matches=int(probe_matched.sum()),
        cpu_bytes=build.hashes.nbytes + probe.hashes.nbytes,
        pim_elements=int(build_live.sum()) + int(probe_live.sum()),
        build_mask_out=build_matched,
    )
