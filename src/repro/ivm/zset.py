"""Z-set primitives: columnar weighted batches and MVCC record deltas.

A Z-set maps rows to signed integer weights; a weight of zero
annihilates the row. Physically it is a *batch* in structure-of-arrays
form — one array per payload column beside an ``int64`` weight vector —
so mutation is summation: batches concatenate, and consolidation (sort
on the key columns, then a segmented sum of the weights) merges equal
keys and drops the groups that cancelled.

Committed writes translate into weighted row deltas (the DBSP
change-stream encoding):

* insert → ``(new_row, +1)``
* delete → ``(old_row, -1)``
* update → ``(old_row, -1), (new_row, +1)``

The MVCC version journal yields a window of writes in exactly that
form (:meth:`~repro.mvcc.manager.LogWindow.changes`); :func:`record_deltas`
splits it into ``(row index, weight)`` arrays per region, ready for one
:meth:`~repro.core.storage.TableStorage.read_rows` gather each. Linear
view operators fold the resulting batches into their state; the join
view composes two linear halves via the chain rule.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.mvcc.manager import LogWindow
from repro.mvcc.metadata import Region

__all__ = ["ZSet", "record_deltas"]

#: Below this bound on Σ|weight · value| a sum cannot leave ``int64``.
_INT64_SAFE = 1 << 62


class ZSet:
    """A batch of weighted rows: payload column arrays + a weight vector.

    ``columns`` maps a column name to an array with one entry per row;
    ``weights`` holds the rows' signed multiplicities. A batch may hold
    equal rows more than once and zero weights — :meth:`consolidate` is
    what sums and drops them.
    """

    __slots__ = ("columns", "weights")

    def __init__(self, columns: Mapping[str, np.ndarray], weights: np.ndarray) -> None:
        self.columns = dict(columns)
        self.weights = np.asarray(weights, dtype=np.int64)

    def __len__(self) -> int:
        return self.weights.size

    @classmethod
    def concat(cls, batches: Sequence["ZSet"]) -> "ZSet":
        """The sum of ``batches`` (same columns): their rows, appended."""
        return cls(
            {
                name: np.concatenate([batch.columns[name] for batch in batches])
                for name in batches[0].columns
            },
            np.concatenate([batch.weights for batch in batches]),
        )

    def select(self, mask: np.ndarray) -> "ZSet":
        """The rows where ``mask`` holds, weights unchanged."""
        return ZSet(
            {name: values[mask] for name, values in self.columns.items()},
            self.weights[mask],
        )

    def weighted(self, name: str) -> np.ndarray:
        """``weight × value`` per row of an int column, ready to sum.

        ``int64`` whenever no sum of the products can wrap; otherwise
        exact Python ints (object dtype) — an 8-byte column can hold
        values whose batch total passes 2⁶³.
        """
        values = self.columns[name]
        if values.size and int(values.max()) * int(np.abs(self.weights).sum()) >= _INT64_SAFE:
            return values.astype(object) * self.weights.astype(object)
        return values.astype(np.int64) * self.weights

    def consolidate(self, keys: Sequence[str], sums: Sequence[str] = ()) -> "ZSet":
        """One row per distinct ``keys`` value: sort + segmented sum.

        The result's weight is the group's summed weight, and each
        column named in ``sums`` becomes the group's weighted total
        ``Σ weight × value``. Groups whose weight and totals are all
        zero annihilate — they are not in the result.
        """
        order = np.lexsort([self.columns[name] for name in reversed(keys)])
        sorted_keys = [self.columns[name][order] for name in keys]
        boundary = np.zeros(len(self), dtype=bool)
        boundary[:1] = True
        for column in sorted_keys:
            boundary[1:] |= column[1:] != column[:-1]
        starts = np.flatnonzero(boundary)
        totals = {
            name: np.add.reduceat(self.weighted(name)[order], starts) for name in sums
        }
        weights = np.add.reduceat(self.weights[order], starts)
        keep = weights != 0
        for total in totals.values():
            keep |= total != 0
        columns = {name: column[starts][keep] for name, column in zip(keys, sorted_keys)}
        columns.update((name, total[keep]) for name, total in totals.items())
        return ZSet(columns, weights[keep])


def record_deltas(window: LogWindow) -> Tuple[int, Dict[str, Tuple[np.ndarray, np.ndarray]]]:
    """The weighted row deltas of a window of the MVCC version journal.

    Returns the entry count and, per region, the ``(row indices,
    weights)`` of the versions to read, in commit order. Old versions
    stay readable until defragmentation compacts the delta region, and
    defrag marks every view for a full resync before that happens, so
    both sides of an update are always materializable.
    """
    rows, deltas, weights = window.changes()
    in_delta = deltas >= 0
    return window.records, {
        Region.DATA: (rows[~in_delta], weights[~in_delta]),
        Region.DELTA: (deltas[in_delta], weights[in_delta]),
    }
