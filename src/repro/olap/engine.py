"""The OLAP engine: snapshot-consistent PIM scans plus CPU glue (§6.3).

The engine runs physical operators through the two-phase executor, takes
care of snapshotting before each query, and converts CPU-side glue work
(result harvest, group merge, bucket exchange) into time using the system
configuration's CPU bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.core.table import TableRuntime
from repro.errors import QueryError
from repro.mvcc.metadata import Region
from repro.olap import plan as qplan
from repro.olap.operators import (
    AggregationOperation,
    FilterOperation,
    GroupOperation,
    HashOperation,
    RegionRows,
)
from repro.olap.cost import RooflinePoint, classify, scan_bandwidth_per_unit
from repro.pim.controller import _ControllerBase
from repro.pim.executor import ExecutionResult, TwoPhaseExecutor
from repro.pim.pim_unit import CYCLES_PER_ELEMENT, Condition, RankUnits
from repro.telemetry import registry as telemetry

__all__ = ["QueryTiming", "OLAPEngine", "OperatorMetrics", "CPUFilterResult"]


@dataclass
class CPUFilterResult:
    """Outcome of a CPU fallback scan (§4.1.2) — mask-compatible with
    :class:`~repro.olap.operators.FilterOperation`."""

    column: str
    condition: "Condition"
    mask: np.ndarray
    cpu_bytes: int = 0

#: Modelled per-element CPU merge cost (ns) for dictionaries/buckets.
_CPU_MERGE_NS_PER_ELEMENT = 0.5


@dataclass(frozen=True)
class OperatorMetrics(RooflinePoint):
    """Roofline accounting of one operator execution.

    ``effective_bandwidth`` is aggregated across the participating
    units, and ``ceiling_bandwidth`` is the per-unit stream ceiling for
    that many units.
    """

    operator: str
    column: str
    control_time: float
    total_time: float
    num_units: int

    @classmethod
    def from_scan(
        cls,
        operator: str,
        column: str,
        scan: ExecutionResult,
        num_units: int,
        per_unit_ceiling: float,
    ) -> "OperatorMetrics":
        """Build metrics from one executor result."""
        return cls(
            operator=operator,
            column=column,
            dram_bytes=scan.dram_bytes,
            elements=scan.elements,
            load_time=scan.load_time,
            compute_time=scan.compute_time,
            control_time=scan.control_time,
            total_time=scan.total_time,
            num_units=num_units,
            ceiling_bandwidth=per_unit_ceiling * max(num_units, 0),
            bound=classify(scan.load_time, scan.compute_time, scan.control_time),
        )


@dataclass
class QueryTiming:
    """Time accounting of one analytical query (Fig. 9b breakdown)."""

    snapshot_time: float = 0.0
    defrag_time: float = 0.0
    scan: ExecutionResult = field(default_factory=ExecutionResult)
    cpu_time: float = 0.0

    @property
    def consistency_time(self) -> float:
        """Snapshot + defragmentation — the paper's *consistency* bar."""
        return self.snapshot_time + self.defrag_time

    @property
    def total_time(self) -> float:
        """End-to-end query time."""
        return self.consistency_time + self.scan.total_time + self.cpu_time

    def add_cpu_bytes(self, nbytes: int, bandwidth: float) -> None:
        """Account CPU traffic at ``bandwidth`` bytes/ns."""
        self.cpu_time += nbytes / bandwidth


class OLAPEngine:
    """Executes analytical operators against table runtimes."""

    def __init__(
        self,
        config: SystemConfig,
        controller: _ControllerBase,
        units: RankUnits,
    ) -> None:
        self.config = config
        self.controller = controller
        self.units = units
        self.executor = TwoPhaseExecutor(controller)
        #: Per-unit stream-bandwidth ceiling of the active substrate.
        self.unit_ceiling = scan_bandwidth_per_unit(config)
        #: Roofline accounting of every operator execution, appended only
        #: while the telemetry registry's ``roofline`` flag is on.
        self.roofline_log: List[OperatorMetrics] = []

    # ------------------------------------------------------------------
    # Mode-switch batching (serve-layer scheduler hook)
    # ------------------------------------------------------------------
    def begin_mode_batch(self) -> float:
        """Switch banks into PIM mode for a batch of queries; returns ns.

        Queries executed before :meth:`end_mode_batch` skip their
        per-launch mode switches (see
        :meth:`repro.pim.controller._ControllerBase.begin_mode_batch`).
        """
        cost = self.controller.begin_mode_batch()
        tel = telemetry.active()
        if tel.enabled and cost.total:
            tel.record_span("pim.control", cost.total, {"kind": "mode_batch"})
        return cost.total

    def end_mode_batch(self) -> float:
        """Close the open mode batch; returns the switch-back cost in ns."""
        return self.controller.end_mode_batch().total

    def _scan(self, operator: str, op, column: str, timing: QueryTiming) -> None:
        """Run one scan operator and charge it to ``timing``: its phases,
        then the CPU harvest of its results; report it to telemetry.

        The operator span is a frame around the executor run: the phase
        and control spans the run records are its children, and it
        covers their window without advancing the cursor a second time.
        """
        tel = telemetry.active()
        attrs: Dict[str, object] = {"column": column}
        with tel.span(f"olap.operator.{operator}", attrs):
            scan = self.executor.execute(op)
            timing.scan = timing.scan.merge(scan)
            timing.add_cpu_bytes(op.cpu_transfer_bytes, self.config.total_cpu_bandwidth)
            if not tel.enabled:
                return
            tel.counter("olap.operators").inc()
            tel.counter(f"olap.operator.{operator}.count").inc()
            tel.counter("olap.bytes_scanned").inc(getattr(op, "bytes_scanned", 0))
            tel.counter("olap.cpu_transfer_bytes").inc(getattr(op, "cpu_transfer_bytes", 0))
            tel.histogram(f"olap.operator.{operator}.latency_ns").observe(scan.total_time)
            attrs["phases"] = scan.phases
            if tel.roofline:
                metrics = OperatorMetrics.from_scan(
                    operator,
                    column,
                    scan,
                    len(list(op.participating_units())),
                    self.unit_ceiling,
                )
                self.roofline_log.append(metrics)
                attrs.update(
                    dram_bytes=metrics.dram_bytes,
                    eff_gbps=round(metrics.effective_bandwidth, 6),
                    ceiling_ratio=round(metrics.ceiling_ratio, 6),
                    bound=metrics.bound,
                )
                tel.counter(f"olap.operator.{operator}.dram_bytes").inc(metrics.dram_bytes)
                tel.counter(f"olap.operator.{operator}.elements").inc(metrics.elements)
                tel.counter(f"olap.operator.{operator}.bound.{metrics.bound}").inc()
                tel.histogram(f"olap.operator.{operator}.eff_gbps").observe(
                    metrics.effective_bandwidth
                )
                tel.histogram(f"olap.operator.{operator}.ceiling_ratio").observe(
                    metrics.ceiling_ratio
                )

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self, table: TableRuntime, ts: int, timing: QueryTiming) -> None:
        """Bring the table's snapshot up to ``ts`` and charge its cost."""
        cost = table.snapshots.update_to(ts)
        elapsed = cost.total_cpu_bytes / self.config.total_cpu_bandwidth
        timing.snapshot_time += elapsed
        tel = telemetry.active()
        if tel.enabled:
            tel.counter("olap.snapshots").inc()
            tel.record_span("olap.snapshot", elapsed, {"table": table.name})

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def filter(
        self,
        table: TableRuntime,
        column: str,
        condition: Condition,
        timing: QueryTiming,
        rows: Optional[RegionRows] = None,
    ) -> FilterOperation:
        """Run a predicate scan; mask harvest is charged to CPU time."""
        op = FilterOperation(
            table.storage, self.units, column, condition, rows or table.region_rows()
        )
        self._scan("filter", op, column, timing)
        return op

    def group(
        self,
        table: TableRuntime,
        column: str,
        timing: QueryTiming,
        rows: Optional[RegionRows] = None,
    ) -> Tuple[GroupOperation, qplan.MergedGroups]:
        """Group scan + CPU dictionary merge."""
        op = GroupOperation(table.storage, self.units, column, rows or table.region_rows())
        self._scan("group", op, column, timing)
        merged = qplan.merge_group_blocks(op)
        timing.add_cpu_bytes(merged.cpu_bytes, self.config.total_cpu_bandwidth)
        timing.cpu_time += merged.num_groups * _CPU_MERGE_NS_PER_ELEMENT
        return op, merged

    def aggregate(
        self,
        table: TableRuntime,
        column: str,
        indices: np.ndarray,
        num_groups: int,
        timing: QueryTiming,
        rows: Optional[RegionRows] = None,
    ) -> np.ndarray:
        """Grouped sum of a value column under precomputed group indices."""
        op = AggregationOperation(
            table.storage, self.units, column, rows or table.region_rows(), indices, num_groups
        )
        self._scan("aggregate", op, column, timing)
        return op.total

    def hash_scan(
        self,
        table: TableRuntime,
        column: str,
        timing: QueryTiming,
        rows: Optional[RegionRows] = None,
        hash_function: int = 0,
    ) -> HashOperation:
        """Hash a join key column."""
        op = HashOperation(
            table.storage, self.units, column, rows or table.region_rows(), hash_function
        )
        self._scan("hash", op, column, timing)
        return op

    def join(
        self,
        build: HashOperation,
        probe: HashOperation,
        timing: QueryTiming,
        build_mask: Optional[np.ndarray] = None,
    ) -> qplan.JoinResult:
        """Bucketized hash join; PIM bucket matching charged as compute.

        The matching rows come from :func:`repro.olap.plan.hash_join`;
        the units' share of the join is a charge, not a data path —
        routing bucket pairs through ``PIMUnit.op_join`` would enumerate
        every ``(probe, build)`` pair, which grows with the square of a
        duplicated key's multiplicity and overflows the WRAM result
        region.
        """
        result = qplan.hash_join(build, probe, build_mask)
        timing.add_cpu_bytes(result.cpu_bytes, self.config.total_cpu_bandwidth)
        # PIM units match buckets in parallel (§6.3): elements spread over
        # all units' tasklets at the join cycle cost.
        # No ceil, unlike compute_phase_time: unifying them drifts (ROADMAP item 17).
        pim = self.config.pim
        per_unit = result.pim_elements / max(1, len(self.units))
        steps = per_unit / pim.tasklets
        match_time = steps * CYCLES_PER_ELEMENT["join"] * pim.cycle_ns
        timing.scan.compute_time += match_time
        timing.scan.total_time += match_time
        tel = telemetry.active()
        if tel.enabled:
            tel.counter("olap.operator.join.count").inc()
            tel.counter("olap.cpu_transfer_bytes").inc(result.cpu_bytes)
            attrs: Dict[str, object] = {"elements": result.pim_elements}
            if tel.roofline:
                # Bucket matching is WRAM-resident — no DRAM traffic, so
                # the join's match step is compute-bound by construction.
                metrics = OperatorMetrics(
                    operator="join",
                    column="",
                    dram_bytes=0,
                    elements=result.pim_elements,
                    load_time=0.0,
                    compute_time=match_time,
                    control_time=0.0,
                    total_time=match_time,
                    num_units=len(self.units),
                    ceiling_bandwidth=self.unit_ceiling * len(self.units),
                    bound="compute",
                )
                self.roofline_log.append(metrics)
                attrs.update(dram_bytes=0, bound="compute")
                tel.counter("olap.operator.join.elements").inc(result.pim_elements)
                tel.counter("olap.operator.join.bound.compute").inc()
            tel.record_span("olap.operator.join", match_time, attrs)
        return result

    def cpu_filter(
        self,
        table: TableRuntime,
        column: str,
        condition: Condition,
        timing: QueryTiming,
        rows: Optional[RegionRows] = None,
    ) -> "CPUFilterResult":
        """Predicate scan of *any* column through the CPU (§4.1.2).

        Normal columns are not IDE-aligned, so PIM units cannot stream
        them; the CPU streams every part containing the column instead —
        correct, but at a bandwidth cost the key-column mechanism avoids.
        The mask covers the scan's rows in the same order as a PIM
        filter's, so results compose with aggregates and joins.
        """
        rows = rows or table.region_rows()
        storage = table.storage
        masks: List[np.ndarray] = []
        cpu_bytes = 0
        per_row_compute = 1.0  # ns per predicate evaluation on the CPU
        for region, count, visible in (
            (Region.DATA, rows.data_rows, table.snapshots.visible_data_rows()),
            (Region.DELTA, rows.delta_rows, table.snapshots.visible_delta_rows()),
        ):
            if count <= 0:
                continue
            raw = storage.read_column_values(region, column, count)
            if storage.layout.schema.column(column).kind == "int":
                values = np.fromiter(raw, dtype=np.uint64, count=count)
            else:
                # Opaque byte columns compare as 0 (matches the per-row
                # ``v if isinstance(v, int) else 0`` reference behavior).
                values = np.zeros(count, dtype=np.uint64)
            masks.append(condition.evaluate(values) & visible[:count])
            cpu_bytes += storage.cpu_scan_bytes(column, count)
            timing.cpu_time += count * per_row_compute
        timing.add_cpu_bytes(cpu_bytes, self.config.total_cpu_bandwidth)
        tel = telemetry.active()
        if tel.enabled:
            tel.counter("olap.operator.cpu_filter.count").inc()
            tel.counter("olap.cpu_filter_bytes").inc(cpu_bytes)
        mask = np.concatenate(masks) if masks else np.zeros(0, dtype=bool)
        return CPUFilterResult(column, condition, mask, cpu_bytes)

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    def filtered_sum(
        self,
        table: TableRuntime,
        filters: Sequence[FilterOperation],
        value_column: str,
        timing: QueryTiming,
        rows: Optional[RegionRows] = None,
    ) -> int:
        """SUM(value) over rows passing all filters (no GROUP BY)."""
        if not filters:
            raise QueryError("filtered_sum needs at least one filter")
        mask, cpu_bytes = qplan.combine_masks(filters)
        timing.add_cpu_bytes(cpu_bytes, self.config.total_cpu_bandwidth)
        indices = qplan.masks_to_indices(mask)
        total = self.aggregate(table, value_column, indices, 1, timing, rows)
        return int(total[0])
