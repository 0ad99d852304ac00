"""Routing TPC-C transactions to shards, splitting cross-shard ones.

Every closure in :mod:`repro.oltp.tpcc` carries its ``txn_name`` and
``params``, and the params name the warehouses the transaction touches,
its home warehouse first. The router maps those warehouses onto shards;
it knows nothing about any one transaction type.

A transaction whose warehouses all live on one shard runs unchanged on
that engine — the common case, and the reason a 1-shard cluster is
bit-identical to the bare engine. A transaction spanning shards is
split into one part per shard: the same factory rebuilt with an
ownership predicate, so each part performs exactly the original
operations (in the original order, with the same computed values) on
rows of warehouses that shard owns. An N-shard history therefore leaves
the shards holding the committed data a single engine running the
unsplit transactions would hold — the property the scatter-gather OLAP
tests verify bit-identically.

The split is by *shard*, not by warehouse: a New-Order line whose
remote supply warehouse lives on the home shard stays in the home part
and pays no 2PC. Stock-Level cannot be routed across shards (its STOCK
reads follow each order line's supply warehouse, known only when it
runs), so a multi-shard router rejects it before any shard runs.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import TransactionError
from repro.oltp.engine import TxnContext
from repro.oltp.tpcc import rebuild_transaction

from repro.cluster.partition import shard_of

__all__ = ["ShardRouter"]


class ShardRouter:
    """Maps transactions to the shards they touch and splits them."""

    def __init__(self, num_shards: int, warehouses: int) -> None:
        if num_shards < 1:
            raise TransactionError("a cluster needs at least one shard")
        if warehouses < num_shards:
            raise TransactionError(
                f"{warehouses} warehouse(s) cannot cover {num_shards} shards"
            )
        self.num_shards = int(num_shards)
        self.warehouses = int(warehouses)

    def shard_of_warehouse(self, w_id: int) -> int:
        """The shard owning warehouse ``w_id``."""
        if not 1 <= w_id <= self.warehouses:
            raise TransactionError(f"warehouse {w_id} outside [1, {self.warehouses}]")
        return shard_of(w_id, self.num_shards)

    def _shards(self, txn: Callable[[TxnContext], None]) -> List[int]:
        """The shards ``txn`` touches, each once, its home shard first."""
        params = getattr(txn, "params", None)
        name = getattr(txn, "txn_name", None)
        if params is None or name is None:
            raise TransactionError("cannot route a transaction without params")
        warehouses = params.warehouses
        if warehouses is None:
            if self.num_shards > 1:
                raise TransactionError(
                    f"cannot route {name} over {self.num_shards} shards: its "
                    "warehouses are not known until it runs"
                )
            return [0]
        if not warehouses:
            raise TransactionError(f"cannot route an empty {name}")
        return list(dict.fromkeys(self.shard_of_warehouse(w) for w in warehouses))

    def home_shard(self, txn: Callable[[TxnContext], None]) -> int:
        """The coordinator shard of ``txn`` (where its client connects)."""
        return self._shards(txn)[0]

    def involved_shards(self, txn: Callable[[TxnContext], None]) -> List[int]:
        """Every shard ``txn`` touches (ascending)."""
        return sorted(self._shards(txn))

    def split(
        self, txn: Callable[[TxnContext], None]
    ) -> Dict[int, Callable[[TxnContext], None]]:
        """Split a cross-shard transaction into per-shard parts: the same
        closure, restricted to the warehouses each shard owns."""
        shards = self._shards(txn)
        if len(shards) < 2:
            raise TransactionError(f"{txn.txn_name} is single-shard; nothing to split")
        return {
            shard: rebuild_transaction(
                txn.txn_name,
                txn.params,
                lambda w_id, shard=shard: self.shard_of_warehouse(w_id) == shard,
            )
            for shard in shards
        }
