"""Materialized views over the CH-bench query shapes (Q1, Q6, Q9).

Each view mirrors one query in :mod:`repro.olap.queries` — same
predicate constants (imported, not duplicated), same output ``rows``
dict — but keeps its aggregate state materialized so committed writes
fold in as weighted deltas. Q1 is a grouped linear aggregate, Q6 a
filtered linear aggregate, and Q9 a join view maintained via the chain
rule: each side keeps its own keyed state and the joined aggregates are
recomposed on read (both sides are tiny keyed dicts, so recomposition
is a dictionary walk, not a table scan).

A fold takes a whole batch (:class:`~repro.ivm.zset.ZSet`): the view's
predicate is one mask over the batch's columns, its aggregate one
consolidation on the group key, and only the consolidated group sums —
a handful of rows — are merged into the keyed state. Batch sums run in
``int64`` where they cannot wrap and in exact Python ints where they
could (:meth:`~repro.ivm.zset.ZSet.weighted`); the state and every
answer are Python ints.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import QueryError
from repro.ivm.zset import ZSet
from repro.olap.queries import (
    _Q1_DELIVERY_CUTOFF,
    _Q6_DELIVERY_HI,
    _Q6_DELIVERY_LO,
    _Q6_QTY_HI,
    _Q6_QTY_LO,
    _Q9_IM_CUTOFF,
)

__all__ = ["MaterializedView", "Q1View", "Q6View", "Q9View", "VIEW_FACTORIES", "make_view"]


def _fold_groups(
    state: Dict[int, List[int]], zset: ZSet, key: str, sums: Sequence[str] = ()
) -> None:
    """Consolidate ``zset`` on ``key`` and add its group sums into ``state``.

    Each state entry is ``[*weighted totals of sums, weight]``; an entry
    whose every component returns to zero is dropped, so a fully
    retracted key leaves no residue.
    """
    groups = zset.consolidate((key,), sums)
    deltas = [groups.columns[name].tolist() for name in sums] + [groups.weights.tolist()]
    for value, *delta in zip(groups.columns[key].tolist(), *deltas):
        entry = state.get(value)
        if entry is None:
            state[value] = delta
            continue
        for position, amount in enumerate(delta):
            entry[position] += amount
        if not any(entry):
            del state[value]


class MaterializedView:
    """Base class: a named view folding weighted row batches.

    ``columns`` maps each source table to the column tuple the view
    needs; :meth:`apply` receives a batch carrying exactly those columns.
    """

    #: Query name, matching the :data:`repro.olap.queries.QUERIES` key.
    name: str = ""
    #: table → columns (in ``apply`` row order) the view reads.
    columns: Mapping[str, Tuple[str, ...]] = {}

    def clear(self) -> None:
        """Reset to the empty-table state."""
        raise NotImplementedError

    def apply(self, table: str, zset: ZSet) -> None:
        """Fold a batch of weighted rows of ``table`` into the view state."""
        raise NotImplementedError

    def rows(self) -> Dict:
        """The query answer, bit-identical to the full-rescan ``rows``.

        Returns freshly built dicts — callers may hold the result across
        later folds without it mutating under them.
        """
        raise NotImplementedError


class Q1View(MaterializedView):
    """Q1: sums and counts of delivered orderlines grouped by ol_number."""

    name = "Q1"
    columns = {"orderline": ("ol_number", "ol_quantity", "ol_amount", "ol_delivery_d")}

    def __init__(self) -> None:
        # ol_number → [sum_qty, sum_amount, count]
        self._groups: Dict[int, list] = {}

    def clear(self) -> None:
        self._groups.clear()

    def apply(self, table: str, zset: ZSet) -> None:
        delivered = zset.select(zset.columns["ol_delivery_d"] > _Q1_DELIVERY_CUTOFF)
        _fold_groups(self._groups, delivered, "ol_number", ("ol_quantity", "ol_amount"))

    def rows(self) -> Dict:
        # The rescan only emits groups with a non-zero count; a linear
        # aggregate can only reach count == 0 with both sums zero too
        # (every contribution was retracted), so dropping on count is
        # exactly the scan's behaviour.
        return {
            number: {"sum_qty": group[0], "sum_amount": group[1], "count": group[2]}
            for number, group in sorted(self._groups.items())
            if group[2]
        }


class Q6View(MaterializedView):
    """Q6: revenue over a delivery-date band and quantity band."""

    name = "Q6"
    columns = {"orderline": ("ol_delivery_d", "ol_quantity", "ol_amount")}

    def __init__(self) -> None:
        self._revenue = 0

    def clear(self) -> None:
        self._revenue = 0

    def apply(self, table: str, zset: ZSet) -> None:
        delivery_d = zset.columns["ol_delivery_d"]
        quantity = zset.columns["ol_quantity"]
        band = (
            (delivery_d >= _Q6_DELIVERY_LO)
            & (delivery_d < _Q6_DELIVERY_HI)
            & (quantity >= _Q6_QTY_LO)
            & (quantity <= _Q6_QTY_HI)
        )
        self._revenue += int(zset.weighted("ol_amount")[band].sum())

    def rows(self) -> Dict:
        return {"revenue": self._revenue}


class Q9View(MaterializedView):
    """Q9: orderline ⋈ item (low i_im_id) revenue, via the chain rule.

    The item side keeps the multiplicity of each qualifying item id
    (weights track duplicates so retractions are exact, but membership
    is *distinct* — the hash join stages build keys in a set); the
    orderline side keeps per-item-id [sum_amount, count] over *all*
    visible orderlines. The joined answer recombines the two keyed
    states on read.
    """

    name = "Q9"
    columns = {
        "item": ("i_id", "i_im_id"),
        "orderline": ("ol_i_id", "ol_amount"),
    }

    def __init__(self) -> None:
        self._items: Dict[int, list] = {}  # i_id → [multiplicity] of qualifying items
        self._lines: Dict[int, list] = {}  # ol_i_id → [sum_amount, count]

    def clear(self) -> None:
        self._items.clear()
        self._lines.clear()

    def apply(self, table: str, zset: ZSet) -> None:
        if table == "item":
            qualifying = zset.select(zset.columns["i_im_id"] <= _Q9_IM_CUTOFF)
            _fold_groups(self._items, qualifying, "i_id")
        else:
            _fold_groups(self._lines, zset, "ol_i_id", ("ol_amount",))

    def rows(self) -> Dict:
        revenue = 0
        matches = 0
        for key, (sum_amount, count) in self._lines.items():
            if key in self._items:
                revenue += sum_amount
                matches += count
        return {"revenue": revenue, "matches": matches}


VIEW_FACTORIES = {view.name: view for view in (Q1View, Q6View, Q9View)}


def make_view(name: str) -> MaterializedView:
    """Instantiate the view for ``name`` (raises QueryError if unknown)."""
    try:
        factory = VIEW_FACTORIES[name]
    except KeyError:
        raise QueryError(f"no incremental view registered for query {name!r}") from None
    return factory()
