"""Incremental view maintenance (IVM) over the MVCC change feed.

DBSP-style delta processing: each registered analytical view is a
*linear* (or chain-rule-composed) operator over the table's row
multiset, so the view's materialized state can be updated by folding
the weighted Z-set deltas of committed writes — ``(old, -1)``/
``(new, +1)`` column arrays sliced straight from the MVCC version
journal by :meth:`~repro.mvcc.manager.MVCCManager.log_between` —
instead of rescanning the full table on every analytical flush.

The layer deals only in *logical* rows (decoded column values); the
cost of reading and folding deltas is charged to the simulated CPU
through :meth:`~repro.olap.engine.QueryTiming.add_cpu_bytes`, exactly
like the CPU glue of a full scan.
"""

from repro.ivm.manager import IVMManager
from repro.ivm.views import VIEW_FACTORIES, MaterializedView, make_view
from repro.ivm.zset import ZSet, record_deltas

__all__ = [
    "IVMManager",
    "MaterializedView",
    "VIEW_FACTORIES",
    "make_view",
    "ZSet",
    "record_deltas",
]
