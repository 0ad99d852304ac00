"""Composable predicates compiled to PIM filter scans.

The hardware filter operation (Fig. 7b) evaluates one comparison per
scan; real queries combine several. A :class:`Predicate` tree expresses
conjunctions/disjunctions of per-column comparisons and compiles to the
minimal set of single-column scans plus CPU-side mask algebra:

>>> p = (col("ol_quantity").between(2, 8)
...      & (col("ol_delivery_d") >= 1500)
...      & ~(col("ol_number") == 3))
>>> mask = evaluate(p, olap_engine, table, timing)

Each *leaf* comparison becomes one ``Filter`` launch; boolean structure
is applied by the CPU to the leaves' masks, one array over the scan's
rows each (cheap — bitmaps are rows/8 bytes), so each node is one array
operation. Leaves over normal columns automatically fall back to the CPU
scan of §4.1.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro.core.table import TableRuntime
from repro.errors import QueryError
from repro.olap.operators import RegionRows
from repro.pim.pim_unit import Condition

__all__ = ["Predicate", "Comparison", "And", "Or", "Not", "col", "evaluate"]


class Predicate:
    """Base class: supports ``&``, ``|`` and ``~`` composition."""

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)

    def leaves(self):
        """Yield every comparison leaf."""
        raise NotImplementedError

    def _apply(self, masks: Dict[Union["Comparison", str], np.ndarray]) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Comparison(Predicate):
    """One single-column comparison — a hardware filter launch."""

    column: str
    op: str
    operand: int

    def condition(self) -> Condition:
        """The Fig. 7b condition encoding of this leaf."""
        return Condition(self.op, self.operand)

    def leaves(self):
        yield self

    def _apply(self, masks):
        return masks[self]


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of two predicates."""

    left: Predicate
    right: Predicate

    def leaves(self):
        yield from self.left.leaves()
        yield from self.right.leaves()

    def _apply(self, masks):
        return self.left._apply(masks) & self.right._apply(masks)


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of two predicates."""

    left: Predicate
    right: Predicate

    def leaves(self):
        yield from self.left.leaves()
        yield from self.right.leaves()

    def _apply(self, masks):
        return self.left._apply(masks) | self.right._apply(masks)


@dataclass(frozen=True)
class Not(Predicate):
    """Negation. Invisible rows stay excluded (negation applies to the
    predicate, not to snapshot visibility)."""

    inner: Predicate

    def leaves(self):
        yield from self.inner.leaves()

    def _apply(self, masks):
        return masks["__visible__"] & ~self.inner._apply(masks)


class _ColumnProxy:
    """Builder: ``col("x") >= 5`` etc."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, operand):  # type: ignore[override]
        return Comparison(self.name, "eq", int(operand))

    def __ne__(self, operand):  # type: ignore[override]
        return Comparison(self.name, "ne", int(operand))

    def __lt__(self, operand):
        return Comparison(self.name, "lt", int(operand))

    def __le__(self, operand):
        return Comparison(self.name, "le", int(operand))

    def __gt__(self, operand):
        return Comparison(self.name, "gt", int(operand))

    def __ge__(self, operand):
        return Comparison(self.name, "ge", int(operand))

    def between(self, low: int, high: int) -> Predicate:
        """Inclusive range predicate (two filter launches)."""
        return Comparison(self.name, "ge", int(low)) & Comparison(
            self.name, "le", int(high)
        )

    __hash__ = None  # proxies are builders, not values


def col(name: str) -> _ColumnProxy:
    """Start a comparison over column ``name``."""
    return _ColumnProxy(name)


def evaluate(
    predicate: Predicate,
    olap,
    table: TableRuntime,
    timing,
    rows: Optional[RegionRows] = None,
) -> np.ndarray:
    """Run every leaf as a scan and fold the boolean structure.

    Deduplicates identical leaves (each distinct comparison scans once).
    Leaves over key columns run on the PIM units; others fall back to the
    CPU path. Returns one mask over the scan's rows, already ANDed with
    snapshot visibility, composable with aggregates and joins.
    """
    rows = rows or table.region_rows()
    leaf_masks: Dict[Union[Comparison, str], np.ndarray] = {}
    for leaf in predicate.leaves():
        if leaf in leaf_masks:
            continue
        if not table.schema.has_column(leaf.column):
            raise QueryError(f"unknown column {leaf.column!r}")
        if leaf.column in table.layout.key_columns:
            op = olap.filter(table, leaf.column, leaf.condition(), timing, rows)
            leaf_masks[leaf] = op.mask
        else:
            result = olap.cpu_filter(table, leaf.column, leaf.condition(), timing, rows)
            leaf_masks[leaf] = result.mask
    if not leaf_masks:
        raise QueryError("predicate has no comparisons")
    # Visibility mask (for Not), over the same rows as the leaves'.
    leaf_masks["__visible__"] = np.concatenate((
        table.snapshots.visible_data_rows()[: rows.data_rows],
        table.snapshots.visible_delta_rows()[: rows.delta_rows],
    ))
    return predicate._apply(leaf_masks)
