"""CPU-side glue for multi-column queries (§6.3).

Multi-column operations (aggregation with GROUP BY, hash join) need CPU
cooperation: merging per-block group dictionaries into global group ids,
combining filter masks, and exchanging hash buckets between banks. These
helpers do the functional work and report the CPU traffic they imply so
the engine can convert it to time.

The join is array code over the concatenated row slices of both scans: a
semi-join, in each direction, on the staged key values
(:func:`hash_join`). It enumerates no ``(probe, build)`` pairs, so
duplicate keys cost nothing extra, and needs no collision pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import QueryError
from repro.olap.operators import (
    FilterOperation,
    GroupOperation,
    HashOperation,
    RowSlice,
)

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
    """Global group ids after the CPU merges per-block dictionaries."""

    keys: np.ndarray
    indices: Dict[RowSlice, np.ndarray]
    cpu_bytes: int

    @property
    def num_groups(self) -> int:
        """Number of distinct group keys."""
        return len(self.keys)


def merge_group_blocks(group_op: GroupOperation) -> MergedGroups:
    """Merge a group scan's per-block dictionaries into global ids.

    Each block's local indices are remapped through a global, sorted key
    dictionary; invisible rows keep :data:`INVALID_GROUP`.
    """
    if not group_op.block_dicts:
        raise QueryError("group operation has no results to merge — run it first")
    all_keys = np.unique(
        np.concatenate([d for d in group_op.block_dicts.values() if len(d)])
        if any(len(d) for d in group_op.block_dicts.values())
        else np.array([], dtype=np.uint64)
    )
    if len(all_keys) >= INVALID_GROUP:
        raise QueryError(f"too many groups ({len(all_keys)}) for 2-byte indices")
    merged: Dict[RowSlice, np.ndarray] = {}
    cpu_bytes = 0
    for row_slice, local in group_op.block_indices.items():
        local_keys = group_op.block_dicts[row_slice]
        out = np.full(len(local), INVALID_GROUP, dtype=np.uint16)
        valid = local != INVALID_GROUP
        if valid.any() and len(local_keys):
            remap = np.searchsorted(all_keys, local_keys).astype(np.uint16)
            out[valid] = remap[local[valid]]
        merged[row_slice] = out
        cpu_bytes += local.nbytes + local_keys.nbytes
    return MergedGroups(all_keys, merged, cpu_bytes)


def combine_masks(
    filters: Sequence[FilterOperation],
) -> Tuple[Dict[RowSlice, np.ndarray], int]:
    """AND the masks of several filter scans over identical row slices."""
    if not filters:
        raise QueryError("combine_masks needs at least one filter")
    slices = set(filters[0].masks)
    for f in filters[1:]:
        if set(f.masks) != slices:
            raise QueryError("filters cover different row slices; cannot combine")
    combined: Dict[RowSlice, np.ndarray] = {}
    cpu_bytes = 0
    for row_slice in slices:
        mask = filters[0].masks[row_slice].copy()
        for f in filters[1:]:
            mask &= f.masks[row_slice]
        combined[row_slice] = mask
        cpu_bytes += sum(-(-len(mask) // 8) for _ in filters)
    return combined, cpu_bytes


def masks_to_indices(
    masks: Mapping[RowSlice, np.ndarray], group: int = 0
) -> Dict[RowSlice, np.ndarray]:
    """Turn boolean masks into single-group aggregation indices.

    Matching rows get group ``group``; others :data:`INVALID_GROUP` —
    filtered aggregation without a GROUP BY is the one-group case.
    """
    out: Dict[RowSlice, np.ndarray] = {}
    for row_slice, mask in masks.items():
        indices = np.full(len(mask), INVALID_GROUP, dtype=np.uint16)
        indices[mask] = group
        out[row_slice] = indices
    return out


def apply_mask_to_indices(
    indices: Mapping[RowSlice, np.ndarray],
    masks: Mapping[RowSlice, np.ndarray],
) -> Dict[RowSlice, np.ndarray]:
    """Invalidate group indices of rows a filter rejected."""
    out: Dict[RowSlice, np.ndarray] = {}
    for row_slice, idx in indices.items():
        if row_slice not in masks:
            raise QueryError(f"mask missing for rows {row_slice}")
        masked = idx.copy()
        masked[~masks[row_slice]] = INVALID_GROUP
        out[row_slice] = masked
    return out


@dataclass(frozen=True)
class JoinResult:
    """Outcome of a hash join between two scanned key columns.

    ``probe_masks`` marks which probe-side rows matched (usable as a
    filter for a follow-up aggregation); ``build_masks_out`` marks build
    rows with at least one probe match (semi-join the other way);
    ``matches`` counts the probe rows that matched — a probe row counts
    once however many build rows carry its key, so this is not the
    number of join pairs.
    """

    probe_masks: Dict[RowSlice, np.ndarray]
    matches: int
    cpu_bytes: int
    pim_elements: int
    build_masks_out: Optional[Dict[RowSlice, np.ndarray]] = None

    @property
    def matched_build_rows(self) -> int:
        """Build rows with at least one probe match."""
        if not self.build_masks_out:
            return 0
        return int(sum(m.sum() for m in self.build_masks_out.values()))


def _concatenated(arrays: Iterable[np.ndarray], dtype) -> np.ndarray:
    """The per-slice arrays of one scan side as one array, in slice order."""
    arrays = list(arrays)
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=dtype)


def _per_slice(
    flat: np.ndarray, slices: Mapping[RowSlice, np.ndarray]
) -> Dict[RowSlice, np.ndarray]:
    """Split a concatenated per-row array back into the slices it came from."""
    cuts = np.cumsum([len(rows) for rows in slices.values()])[:-1]
    return dict(zip(slices, np.split(flat, cuts)))


def hash_join(
    build: HashOperation,
    probe: HashOperation,
    build_masks: Optional[Mapping[RowSlice, np.ndarray]] = None,
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

    ``build_masks`` optionally restricts the build side to rows passing
    an earlier filter (e.g. Q9's item predicate).
    """
    if build.hash_function != probe.hash_function:
        raise QueryError(
            f"cannot join {build.column!r} hashed with function "
            f"{build.hash_function} to {probe.column!r} hashed with function "
            f"{probe.hash_function}: equal keys share a bucket only under one "
            "hash function"
        )
    build_hashes = _concatenated(build.hashes.values(), np.uint32)
    probe_hashes = _concatenated(probe.hashes.values(), np.uint32)
    build_keys = _concatenated(build.values.values(), np.uint64)
    probe_keys = _concatenated(probe.values.values(), np.uint64)
    # Hash 0 marks a row the snapshot hides.
    build_live = build_hashes != 0
    probe_live = probe_hashes != 0
    if build_masks is not None:
        for row_slice in build.hashes:
            if row_slice not in build_masks:
                raise QueryError(f"build mask missing for rows {row_slice}")
        build_live &= _concatenated((build_masks[s] for s in build.hashes), bool)
    probe_matched = probe_live & np.isin(probe_keys, build_keys[build_live])
    build_matched = build_live & np.isin(build_keys, probe_keys[probe_live])
    return JoinResult(
        probe_masks=_per_slice(probe_matched, probe.hashes),
        matches=int(probe_matched.sum()),
        cpu_bytes=sum(h.nbytes for h in build.hashes.values())
        + sum(h.nbytes for h in probe.hashes.values()),
        pim_elements=int(build_live.sum()) + int(probe_live.sum()),
        build_masks_out=_per_slice(build_matched, build.hashes),
    )
