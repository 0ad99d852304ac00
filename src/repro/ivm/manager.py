"""The IVM manager: registered views, delta folding, and resync.

One :class:`IVMManager` serves one engine. Each registered view carries
a *view timestamp* — the snapshot its state reflects. Answering a query
first refreshes the view to the query timestamp:

* normally by folding the version-journal window
  ``log_between(view_ts, ts)`` — already column arrays of old/new
  versions with their ∓1 weights — into the view (reading only the
  touched versions' view columns), charged to the simulated CPU per byte
  moved plus a small per-delta apply cost;
* after defragmentation by a full resync from the MVCC visibility
  bitmaps at the new horizon — ``compact()`` clears the journal and
  releases superseded delta versions, so the change feed can no longer
  bridge the gap.

Either way the rows reach the view as column batches: per table and
region, the row indices to read (the journal window's versions, or the
set bits of the visibility bitmap with weight 1) go through one
:meth:`~repro.core.storage.TableStorage.read_rows` gather, and the view
folds the resulting :class:`~repro.ivm.zset.ZSet` in one
:meth:`~repro.ivm.views.MaterializedView.apply`.

Refresh cost accounting goes through the same
:meth:`~repro.olap.engine.QueryTiming.add_cpu_bytes` channel as a
rescan's CPU glue, so incremental and rescan answers are directly
comparable in simulated time. The charges are counts — records walked,
rows folded — and stay Python ints however the rows were read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.errors import QueryError
from repro.ivm.views import MaterializedView, make_view
from repro.ivm.zset import ZSet, record_deltas
from repro.mvcc.metadata import METADATA_BYTES, Region
from repro.olap.engine import QueryTiming
from repro.olap.queries import QueryResult
from repro.telemetry import registry as telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import PushTapEngine

__all__ = ["IVMManager", "ViewStats"]

#: CPU nanoseconds to fold one weighted row delta into view state
#: (hash-map update; same order as the engine's per-element merge cost).
_APPLY_NS_PER_DELTA = 0.5


@dataclass
class ViewStats:
    """Lifetime maintenance counters of one registered view."""

    applied_records: int = 0
    folded_rows: int = 0
    recomputes: int = 0


class IVMManager:
    """Registers and incrementally maintains materialized views."""

    def __init__(self, engine: "PushTapEngine") -> None:
        self.engine = engine
        self.views: Dict[str, MaterializedView] = {}
        self._view_ts: Dict[str, int] = {}
        self._dirty: Dict[str, bool] = {}
        self._stats: Dict[str, ViewStats] = {}
        # Per-(view, table) cached column widths (bytes per folded row).
        self._widths: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str) -> MaterializedView:
        """Register (and initially populate) the view for query ``name``.

        The initial population reads the current snapshot but is not
        charged — it is load-time work, like the initial table load.
        Registering an already-registered view is a no-op.
        """
        if name in self.views:
            return self.views[name]
        view = make_view(name)
        for table, columns in view.columns.items():
            runtime = self.engine.db.table(table)  # raises on unknown table
            schema = runtime.storage.layout.schema
            self._widths[(name, table)] = sum(
                schema.column(column).width for column in columns
            )
        self.views[name] = view
        self._stats[name] = ViewStats()
        self._dirty[name] = True
        self._view_ts[name] = 0
        self._recompute(name, self.engine.db.oracle.read_timestamp(), timing=None)
        return view

    def covers(self, names: Iterable[str]) -> bool:
        """Whether every query in ``names`` has a registered view."""
        return all(name in self.views for name in names)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def answer(self, name: str, ts: int) -> QueryResult:
        """The view's answer at ``ts``, refreshing its state first.

        Bit-identical to ``run_query(name, ...)`` at the same ``ts``;
        the returned timing carries the refresh cost (zero when the view
        is already at ``ts``).
        """
        if name not in self.views:
            raise QueryError(f"query {name!r} has no registered incremental view")
        result = QueryResult(name)
        self.refresh(name, ts, result.timing)
        result.rows = self.views[name].rows()
        return result

    def refresh(self, name: str, ts: int, timing: QueryTiming) -> None:
        """Bring one view to ``ts``, charging the work to ``timing``."""
        if self._dirty[name]:
            self._recompute(name, ts, timing)
            return
        last = self._view_ts[name]
        if ts == last:
            return
        records = 0
        folded = 0
        nbytes = 0
        for table in self.views[name].columns:
            mvcc = self.engine.db.table(table).mvcc
            count, deltas = record_deltas(mvcc.log_between(last, ts))
            rows = self._fold(name, table, deltas)
            records += count
            folded += rows
            nbytes += count * METADATA_BYTES + rows * self._widths[(name, table)]
        self._view_ts[name] = ts
        telemetry.count(self._stats[name], "applied_records", "ivm.applied_records", records)
        self._charge(name, folded, nbytes, timing)

    def on_defrag(self, ts: int) -> None:
        """Mark every view for a full resync.

        Defragmentation compacts the delta region and clears the version
        journal, so delta folding cannot cross it; each view recomputes from
        the post-defrag snapshot on its next refresh.
        """
        for name in self.views:
            self._dirty[name] = True
        tel = telemetry.active()
        if tel.enabled:
            tel.counter("ivm.defrag_resyncs").inc(len(self.views))

    def _recompute(self, name: str, ts: int, timing: Optional[QueryTiming]) -> None:
        """Rebuild one view from the MVCC visibility bitmaps at ``ts``."""
        view = self.views[name]
        view.clear()
        folded = 0
        nbytes = 0
        for table in view.columns:
            mvcc = self.engine.db.table(table).mvcc
            visible = mvcc.visible_refs_at(ts, mvcc.delta.high_water_rows)
            deltas = {}
            for region, bits in zip((Region.DATA, Region.DELTA), visible):
                index = np.flatnonzero(bits)
                deltas[region] = (index, np.ones(index.size, dtype=np.int64))
            rows = self._fold(name, table, deltas)
            folded += rows
            nbytes += rows * self._widths[(name, table)]
        self._view_ts[name] = ts
        self._dirty[name] = False
        telemetry.count(self._stats[name], "recomputes", "ivm.recomputes")
        self._charge(name, folded, nbytes, timing)

    def _fold(
        self, name: str, table: str, deltas: Dict[str, Tuple[np.ndarray, np.ndarray]]
    ) -> int:
        """Gather ``table``'s weighted rows and fold them into view ``name``.

        ``deltas`` maps a region to the ``(row indices, weights)`` to
        read — one gather per region, one fold for the table; returns
        the number of rows folded.
        """
        view = self.views[name]
        storage = self.engine.db.table(table).storage
        columns = view.columns[table]
        view.apply(
            table,
            ZSet.concat(
                [
                    ZSet(storage.read_rows(region, index, columns), weights)
                    for region, (index, weights) in deltas.items()
                ]
            ),
        )
        return sum(int(index.size) for index, _ in deltas.values())

    def _charge(
        self, name: str, folded: int, nbytes: int, timing: Optional[QueryTiming]
    ) -> None:
        """Book ``folded`` rows (``nbytes`` moved) to stats, counter and clock."""
        telemetry.count(self._stats[name], "folded_rows", "ivm.folded_rows", folded)
        if timing is not None:
            timing.add_cpu_bytes(nbytes, self.engine.olap.config.total_cpu_bandwidth)
            timing.cpu_time += folded * _APPLY_NS_PER_DELTA

    # ------------------------------------------------------------------
    # Cost estimation / introspection (for the serve scheduler)
    # ------------------------------------------------------------------
    def pending_records(self, upto_ts: Optional[int] = None) -> int:
        """Log records the next refresh of all views would fold.

        Counts per (view, table) — a record feeding two views is work
        twice, exactly as :meth:`refresh` will pay it.
        """
        ts = self.engine.db.oracle.read_timestamp() if upto_ts is None else upto_ts
        total = 0
        for name, view in self.views.items():
            if self._dirty[name]:
                continue
            for table in view.columns:
                mvcc = self.engine.db.table(table).mvcc
                total += mvcc.log_count_between(self._view_ts[name], ts)
        return total

    def estimate_refresh_time(self, upto_ts: Optional[int] = None) -> float:
        """Estimated simulated ns to refresh every view to ``upto_ts``.

        Deterministic: pending record counts times a per-record byte
        bound (metadata plus both versions' view
        columns), over the CPU bandwidth, plus the per-delta apply cost.
        Dirty views are estimated at full-recompute cost (visible rows
        unknown without doing the work, so the live row count bounds it).
        """
        ts = self.engine.db.oracle.read_timestamp() if upto_ts is None else upto_ts
        bandwidth = self.engine.olap.config.total_cpu_bandwidth
        nbytes = 0.0
        deltas = 0.0
        for name, view in self.views.items():
            for table in view.columns:
                mvcc = self.engine.db.table(table).mvcc
                width = self._widths[(name, table)]
                if self._dirty[name]:
                    rows = mvcc.num_rows
                    nbytes += rows * width
                    deltas += rows
                else:
                    pending = mvcc.log_count_between(self._view_ts[name], ts)
                    nbytes += pending * (METADATA_BYTES + 2 * width)
                    deltas += 2 * pending
        return nbytes / bandwidth + deltas * _APPLY_NS_PER_DELTA

    def staleness_txns(self, name: str) -> int:
        """Committed timestamps the view trails the oracle by."""
        return self.engine.db.oracle.read_timestamp() - self._view_ts[name]

    def report(self) -> Dict:
        """Per-view staleness and maintenance counters (JSON-friendly)."""
        views = {}
        for name in sorted(self.views):
            stats = self._stats[name]
            views[name] = {
                "view_ts": self._view_ts[name],
                "staleness_txns": self.staleness_txns(name),
                "applied_records": stats.applied_records,
                "folded_rows": stats.folded_rows,
                "recomputes": stats.recomputes,
            }
        return {
            "views": views,
            "applied_records": sum(s.applied_records for s in self._stats.values()),
            "folded_rows": sum(s.folded_rows for s in self._stats.values()),
            "recomputes": sum(s.recomputes for s in self._stats.values()),
        }
