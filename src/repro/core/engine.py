"""The PUSHtap engine: single-instance HTAP on a simulated PIM rank.

:class:`PushTapEngine` assembles the whole stack of Fig. 2d / Fig. 7a:

* one simulated PIM :class:`~repro.pim.memory.Rank` holding every table in
  the unified compact-aligned format with block-circulant placement;
* per-bank PIM units plus a memory controller (PUSHtap's scheduler +
  polling module by default, or the original architecture for the
  Fig. 12b comparison);
* the OLTP engine (MVCC transactions over the same instance) and the OLAP
  engine (snapshot-consistent PIM scans);
* periodic defragmentation every ``defrag_period`` transactions (§7.4
  chooses 10k at full scale — scaled runs pick proportionally smaller
  periods).

Two builders make an engine: :meth:`PushTapEngine.build` over the
CH-benCHmark tables (see ``examples/quickstart.py``) and
:meth:`PushTapEngine.build_custom` over any schemas. Each checks its
inputs at one boundary, turns them into schemas, key columns, indexes,
row counts and column blocks, and hands them to the one loader,
``PushTapEngine._load``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.config import SystemConfig, dimm_system
from repro.core.database import Database
from repro.core.defrag import DefragExecutor, DefragResult, Strategy
from repro.core.snapshot import SnapshotManager
from repro.core.storage import RankAllocator, TableStorage, check_block_rows
from repro.core.table import TableRuntime
from repro.errors import ConfigError, QueryError, SchemaError
from repro.faults import injector as faults
from repro.faults import plan as fault_plan
from repro.format.binpack import compact_aligned_layout
from repro.format.layout import UnifiedLayout
from repro.format.schema import TableSchema
from repro.mvcc.manager import MVCCManager
from repro.olap.engine import OLAPEngine
from repro.olap.queries import QueryResult, run_query
from repro.oltp.engine import OLTPEngine, TxnContext, TxnResult
from repro.oltp.formats import UnifiedFormatModel
from repro.oltp.index import HashIndex
from repro.oltp.tpcc import TPCCDriver
from repro.pim.controller import OriginalController, PushTapController, _ControllerBase
from repro.pim.memory import Rank
from repro.pim.pim_unit import PIMUnit, RankUnits
from repro.telemetry import registry as telemetry
from repro.units import KIB, ceil_div, round_up
from repro.workloads.chbench import all_queries, ch_schema, key_columns_for, row_counts
from repro.workloads.tpcc_gen import generate_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ivm.manager import IVMManager
    from repro.wal.manager import DurabilityManager

__all__ = ["PushTapEngine", "EngineStats", "OLAPBatchResult"]


@dataclass
class OLAPBatchResult:
    """Queries executed under one mode batch, plus the switch cost."""

    results: List[QueryResult]
    switch_time: float = 0.0

#: Table → (index name, key columns) of the CH-benCHmark tables, matching
#: the deterministic data generator's key assignment and the keys TPC-C
#: probes: one column indexes its plain values, several their tuples.
_INDEX_KEYS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "warehouse": ("warehouse_pk", ("w_id",)),
    "district": ("district_pk", ("d_w_id", "d_id")),
    "customer": ("customer_pk", ("c_w_id", "c_d_id", "c_id")),
    "item": ("item_pk", ("i_id",)),
    "stock": ("stock_pk", ("s_w_id", "s_i_id")),
    "order": ("order_pk", ("o_id",)),
    "neworder": ("neworder_pk", ("no_o_id",)),
    "orderline": ("orderline_pk", ("ol_o_id", "ol_number")),
}

#: Table capacity as a multiple of the loaded rows (plus ``extra_rows``).
_INSERT_HEADROOM = 2.0


def _column_arrays(schema: TableSchema, rows: Sequence[Dict]) -> Dict[str, np.ndarray]:
    """Row dicts as one block of the loader's column arrays: ints as an
    integer array, bytes as a NUL-padded ``(n, width)`` ``uint8`` matrix.
    A non-bytes value in a bytes column raises here; any other misfit
    keeps NumPy's type for :meth:`UnifiedLayout.encode_columns` to reject,
    both in :meth:`Column.encode`'s words."""
    columns: Dict[str, np.ndarray] = {}
    for col in schema:
        try:
            values = [row[col.name] for row in rows]
        except KeyError:
            raise SchemaError(
                f"row for table {schema.name!r} missing columns [{col.name!r}]"
            ) from None
        if col.kind == "bytes":
            # NumPy would turn an int among bytes into its digits.
            bad = [v for v in values if not isinstance(v, (bytes, bytearray))]
            if bad:
                raise SchemaError(
                    f"column {col.name!r} expects bytes, got {type(bad[0]).__name__}"
                )
        values = np.array(values)
        if values.dtype.kind == "S":
            values = values.view(np.uint8).reshape(len(rows), -1)
        columns[col.name] = values
    return columns


#: The memory controllers an engine can be built with (``controller_kind``).
_CONTROLLERS: Dict[str, Callable[[SystemConfig, List[PIMUnit]], _ControllerBase]] = {
    "pushtap": PushTapController,
    "original": OriginalController,
}


def _check_build_inputs(
    bad_tables: Dict[str, List[str]],
    controller_kind: str,
    extra_rows: int,
    defrag_period: int,
    ranks: int,
    block_rows: int,
) -> None:
    """The builders' one boundary: a bad input raises :class:`ConfigError`
    before anything is generated or allocated. ``bad_tables`` maps each
    table problem (e.g. ``"counts lacks tables"``) to the tables it names;
    a ``defrag_period`` of 0 means no periodic defragmentation."""
    check_block_rows(block_rows)
    for name, value, least in (
        ("extra_rows", extra_rows, 0), ("defrag_period", defrag_period, 0), ("ranks", ranks, 1)
    ):
        if value < least:
            raise ConfigError(f"{name} must be >= {least}, got {value}")
    if controller_kind not in _CONTROLLERS:
        raise ConfigError(f"unknown controller kind {controller_kind!r}")
    for problem, tables in bad_tables.items():
        if tables:
            raise ConfigError(f"{problem} {tables}")


@dataclass
class EngineStats:
    """Aggregate counters of one engine instance; the OLTP side reads the
    OLTP engine, which accounts each transaction where it ends."""

    oltp: OLTPEngine = field(repr=False)
    queries: int = 0
    defrag_runs: int = 0
    olap_time: float = 0.0
    defrag_time: float = 0.0

    @property
    def transactions(self) -> int:
        """Committed transactions (aborts roll back and do not count)."""
        return self.oltp.committed

    @property
    def oltp_time(self) -> float:
        """OLTP busy time (ns): every transaction's, aborted ones too."""
        return self.oltp.busy_time


class PushTapEngine:
    """Single-instance PIM-based HTAP engine (the paper's contribution)."""

    def __init__(
        self,
        config: SystemConfig,
        ranks: List[Rank],
        db: Database,
        layouts: Dict[str, UnifiedLayout],
        controller: _ControllerBase,
        rank_units: List[RankUnits],
        oltp: OLTPEngine,
        olap: OLAPEngine,
        defrag_period: int,
    ) -> None:
        self.config = config
        #: Every simulated rank and its PIM units; ``rank`` and ``units``
        #: are the first of each.
        self.ranks = ranks
        self.rank_units = rank_units
        self.rank = ranks[0]
        self.units = rank_units[0]
        self.db = db
        self.layouts = layouts
        self.controller = controller
        self.oltp = oltp
        self.olap = olap
        self.defrag_period = defrag_period
        self.stats = EngineStats(oltp)
        #: Optional incremental-view layer (see :meth:`enable_ivm`).
        self.ivm = None
        #: Optional durability layer (see :meth:`enable_durability`).
        self.durability = None
        #: ``oltp.committed`` at the last :meth:`defragment`.
        self._committed_at_defrag = 0
        self._defrag_executors: Dict[str, DefragExecutor] = {
            name: DefragExecutor(
                runtime.storage,
                runtime.mvcc,
                runtime.snapshots,
                bdw_cpu=config.total_cpu_bandwidth,
                bdw_pim=config.total_pim_bandwidth,
            )
            for name, runtime in db.tables.items()
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        config: Optional[SystemConfig] = None,
        scale: float = 1e-4,
        th: float = 0.6,
        queries: Optional[Sequence[str]] = None,
        tables: Optional[Sequence[str]] = None,
        seed: int = 7,
        controller_kind: str = "pushtap",
        defrag_period: int = 1_000,
        block_rows: int = 1024,
        extra_rows: int = 0,
        updates_per_txn_estimate: int = 12,
        circulant: bool = True,
        ranks: int = 1,
        counts: Optional[Dict[str, int]] = None,
        row_filter: Optional[
            Callable[[str, Dict[str, np.ndarray]], Optional[np.ndarray]]
        ] = None,
    ) -> "PushTapEngine":
        """Build a loaded engine over the CH-benCHmark database.

        ``scale`` scales the paper's row counts (§7.1); ``th`` is the
        compact-aligned threshold (§4.1.2, the paper picks 0.6);
        ``queries`` determines the key-column set (default: all 22);
        ``extra_rows`` adds absolute insert capacity per table on top of
        twice the loaded rows (long transaction streams append many
        ORDERLINE/HISTORY rows); ``circulant=False`` disables
        the block-circulant rotation (the Fig. 5a ablation baseline);
        ``ranks`` simulates more than one PIM rank — the paper's third
        access dimension (§1) — with tables assigned round-robin by
        footprint, each scanned by its own rank's PIM units.

        ``counts`` overrides the per-table row counts derived from
        ``scale`` (the cluster layer uses this to pin the warehouse
        count independently of the data volume); ``row_filter(table,
        columns)`` is given each generated block of column arrays and
        returns the mask of rows to keep (``None``: all) — a shard engine
        replays the same deterministic global stream but retains only its
        partition, with capacities and MVCC sized to the retained rows.
        """
        query_set = list(queries) if queries is not None else all_queries()
        schemas = ch_schema()
        names = list(tables) if tables is not None else list(schemas)
        counts = dict(counts) if counts is not None else row_counts(scale)
        _check_build_inputs(
            {
                "tables names unknown tables": [n for n in names if n not in schemas],
                "counts lacks tables": [n for n in names if n not in counts],
                "counts are not ints >= 1 for tables": [
                    f"{n}: {c!r}" for n, c in counts.items()
                    if n in names and (type(c) is not int or c < 1)
                ],
            },
            controller_kind, extra_rows, defrag_period, ranks, block_rows,
        )
        key_columns = {n: key_columns_for(query_set, n) for n in names}

        def blocks(name: str) -> Iterator[Dict[str, np.ndarray]]:
            for columns in generate_table(name, counts, seed, block_rows):
                mask = None if row_filter is None else row_filter(name, columns)
                if mask is not None:
                    columns = {c: values[mask] for c, values in columns.items()}
                yield columns

        if row_filter is None:
            # Generated while loading, one block in memory at a time.
            blocks_by_table = {name: blocks(name) for name in names}
            loaded = {name: counts[name] for name in names}
        else:
            # The retained counts size the engine, so a filtered shard
            # keeps its partition's blocks until it is loaded.
            blocks_by_table = {name: list(blocks(name)) for name in names}
            loaded = {
                name: sum(len(next(iter(block.values()))) for block in kept)
                for name, kept in blocks_by_table.items()
            }
        return cls._load(
            config or dimm_system(),
            {n: schemas[n] for n in names},
            key_columns,
            {n: spec for n, spec in _INDEX_KEYS.items() if n in names},
            loaded,
            blocks_by_table,
            th=th, defrag_period=defrag_period, block_rows=block_rows, extra_rows=extra_rows,
            updates_per_txn_estimate=updates_per_txn_estimate, circulant=circulant,
            ranks=ranks, controller_kind=controller_kind,
        )

    @classmethod
    def build_custom(
        cls,
        schemas: Dict[str, "TableSchema"],
        key_columns: Dict[str, Sequence[str]],
        initial_rows: Dict[str, Sequence[Dict]],
        config: Optional[SystemConfig] = None,
        th: float = 0.6,
        index_keys: Optional[Dict[str, Tuple[str, Sequence[str]]]] = None,
        defrag_period: int = 1_000,
        block_rows: int = 1024,
        extra_rows: int = 0,
        updates_per_txn_estimate: int = 12,
        circulant: bool = True,
        ranks: int = 1,
        controller_kind: str = "pushtap",
    ) -> "PushTapEngine":
        """Build an engine over *arbitrary* schemas (not CH-benCHmark).

        ``schemas`` maps table name → :class:`TableSchema`;
        ``key_columns`` lists each table's analytically scanned columns
        (§4.1.2); ``initial_rows`` supplies the bulk-loaded rows;
        ``index_keys`` optionally maps a table to ``(index_name,
        key_columns)``: a unique hash index over the table's int key
        columns, keyed by one column's value or several columns' tuple,
        which the table keeps through loads, inserts and deletes (key
        columns cannot be updated). The rows are converted once into
        column arrays and loaded like :meth:`build`'s. TPC-C helpers
        (:meth:`make_driver`, :meth:`run_transactions`) only apply to the
        CH build — use :meth:`PushTapEngine.oltp` / :meth:`query` plumbing
        directly, or the generic OLAP operators.
        """
        _check_build_inputs(
            {
                f"{argument} names tables not in schemas": [n for n in given if n not in schemas]
                for argument, given in (("initial_rows", initial_rows), ("key_columns", key_columns))
            },
            controller_kind, extra_rows, defrag_period, ranks, block_rows,
        )
        return cls._load(
            config or dimm_system(),
            schemas,
            key_columns,
            {t: (i, tuple(c)) for t, (i, c) in (index_keys or {}).items()},
            {name: len(initial_rows.get(name, ())) for name in schemas},
            {
                name: [_column_arrays(schema, initial_rows[name])] if initial_rows.get(name) else []
                for name, schema in schemas.items()
            },
            th=th, defrag_period=defrag_period, block_rows=block_rows, extra_rows=extra_rows,
            updates_per_txn_estimate=updates_per_txn_estimate, circulant=circulant,
            ranks=ranks, controller_kind=controller_kind,
        )

    @classmethod
    def _load(
        cls,
        config: SystemConfig,
        schemas: Dict[str, "TableSchema"],
        key_columns: Dict[str, Sequence[str]],
        indexes: Dict[str, Tuple[str, Tuple[str, ...]]],
        counts: Dict[str, int],
        blocks: Dict[str, Iterable[Dict[str, np.ndarray]]],
        *,
        th: float,
        defrag_period: int,
        block_rows: int,
        extra_rows: int,
        updates_per_txn_estimate: int,
        circulant: bool,
        ranks: int,
        controller_kind: str,
    ) -> "PushTapEngine":
        """The one loader behind both builders: lay out, size and place
        every table of ``schemas``, assemble its storage, MVCC, snapshots
        and index, the controller and both engines, then load each
        table's ``blocks`` in order. ``key_columns`` are a table's scanned
        columns, ``indexes`` its index name and int key columns, and
        ``counts`` its loaded rows."""
        names = list(schemas)
        for table_name, (index_name, columns) in indexes.items():
            if table_name not in schemas:
                raise ConfigError(f"index {index_name!r} over unknown table {table_name!r}")
            schema = schemas[table_name]
            ints = [c for c in columns if schema.has_column(c) and schema.column(c).kind == "int"]
            if not columns or len(ints) < len(columns):
                raise ConfigError(
                    f"index {index_name!r} on table {table_name!r} needs int key "
                    f"columns of the table, got {list(columns)}"
                )
        layouts = {
            name: compact_aligned_layout(
                schemas[name],
                list(key_columns.get(name, ())),
                config.geometry.devices_per_rank,
                th,
            )
            for name in names
        }
        capacities = {
            name: round_up(
                max(int(counts[name] * _INSERT_HEADROOM), block_rows) + extra_rows, 8
            )
            for name in names
        }
        delta_rows = cls._delta_rows(
            defrag_period, updates_per_txn_estimate, block_rows, config
        )
        # Balance tables over ranks: biggest footprint first, onto the
        # currently lightest rank.
        footprints = {n: layouts[n].bytes_per_row() * capacities[n] for n in names}
        loads, assignment = [0] * ranks, {}
        for name in sorted(names, key=footprints.get, reverse=True):
            assignment[name] = loads.index(min(loads))
            loads[assignment[name]] += footprints[name]
        rank_objects: List[Rank] = []
        allocators: List[RankAllocator] = []
        rank_units: List[RankUnits] = []
        for rank_index in range(ranks):
            members = [n for n in names if assignment[n] == rank_index]
            device_bytes = cls._device_bytes(
                {n: layouts[n] for n in members},
                capacities,
                delta_rows,
                block_rows,
                config,
            )
            rank_obj = Rank(config.geometry, device_bytes)
            rank_objects.append(rank_obj)
            allocators.append(RankAllocator(rank_obj))
            rank_units.append(
                RankUnits(rank_obj, config.pim, config.timings, config.geometry)
            )

        db = Database()
        for name in names:
            rank_index = assignment[name]
            rank_obj = rank_objects[rank_index]
            storage = TableStorage(
                rank_obj,
                allocators[rank_index],
                layouts[name],
                capacities[name],
                delta_rows,
                block_rows,
                circulant=circulant,
            )
            mvcc = MVCCManager(
                initial_rows=counts[name],
                capacity_rows=capacities[name],
                block_rows=block_rows,
                num_devices=rank_obj.num_devices,
                delta_capacity_blocks=ceil_div(delta_rows, block_rows),
            )
            index_name, index_columns = indexes.get(name, (None, ()))
            runtime = TableRuntime(
                name,
                schemas[name],
                layouts[name],
                storage,
                mvcc,
                SnapshotManager(storage, mvcc),
                units=rank_units[rank_index],
                rank_index=rank_index,
                index=None if index_name is None else HashIndex(index_name),
                key_columns=index_columns,
            )
            db.add_table(runtime)

        all_units = [u for units in rank_units for u in units.values()]
        controller = _CONTROLLERS[controller_kind](config, all_units)
        oltp = OLTPEngine(db, UnifiedFormatModel(layouts, config.geometry), config)
        olap = OLAPEngine(config, controller, rank_units[0])
        engine = cls(
            config,
            rank_objects,
            db,
            layouts,
            controller,
            rank_units,
            oltp,
            olap,
            defrag_period,
        )
        for name in names:
            db.table(name).load_columns(blocks[name])
        return engine

    @staticmethod
    def _delta_rows(
        defrag_period: int, updates_per_txn: int, block_rows: int, config: SystemConfig
    ) -> int:
        d = config.geometry.devices_per_rank
        # Delta blocks materialize round-robin over rotations, but a small
        # table's updates all carry few rotations — in the worst case only
        # 1/d of materialized blocks are usable, hence the ×d headroom.
        expected = max(defrag_period, 1_000) * updates_per_txn * d
        blocks = max(2 * d, ceil_div(expected, block_rows) + d)
        return blocks * block_rows

    @staticmethod
    def _device_bytes(
        layouts: Dict[str, UnifiedLayout],
        capacities: Dict[str, int],
        delta_rows: int,
        block_rows: int,
        config: SystemConfig,
    ) -> int:
        total = 0
        for name, layout in layouts.items():
            data_blocks = ceil_div(max(capacities[name], 1), block_rows)
            delta_blocks = ceil_div(max(delta_rows, 1), block_rows)
            for part in layout.parts:
                block_bytes = block_rows * part.row_width
                total += (data_blocks + delta_blocks) * block_bytes
            total += 2 * (max(capacities[name], delta_rows) // 8 + block_rows)
        banks = config.geometry.banks_per_device
        padded = int(total * 1.4) + 512 * KIB
        return round_up(padded, banks * 8 * block_rows)

    # ------------------------------------------------------------------
    # OLTP path
    # ------------------------------------------------------------------
    def execute_transaction(
        self, txn: Callable[[TxnContext], None], auto_defrag: bool = True
    ) -> TxnResult:
        """Run one transaction; defragments when the period elapses or a
        delta region nears capacity.

        ``auto_defrag=False`` defers the defragmentation decision to the
        caller (the serve loop schedules defrag as its own work item via
        :meth:`defrag_due` / :meth:`defragment`, so it can account the
        pause separately from transaction latency).
        """
        if auto_defrag and self.defrag_due():
            self.defragment()
        return self.oltp.execute(txn)

    def run_transactions(
        self, count: int, driver: Optional[TPCCDriver] = None
    ) -> List[TxnResult]:
        """Run ``count`` ≥ 0 transactions from a driver (created if omitted)."""
        if count < 0:
            raise ConfigError(f"run_transactions count must be >= 0, got {count}")
        driver = driver or self.make_driver()
        return [
            self.execute_transaction(driver.next_transaction()) for _ in range(count)
        ]

    def make_driver(
        self,
        seed: int = 11,
        payment_fraction: float = 0.5,
        delivery_fraction: float = 0.0,
        o_id_offset: int = 0,
        o_id_stride: int = 1,
        remote_fraction: float = 1.0,
    ) -> TPCCDriver:
        """Create a TPC-C parameter driver consistent with the loaded data.

        All mix fractions pass through the driver's constructor so its
        validation applies (``payment + delivery`` must not exceed 1,
        ``remote_fraction`` must keep the scaled remote rates in range).
        ``o_id_offset``/``o_id_stride`` give several drivers over the
        same engine (one per serving tenant) disjoint order-id spaces.
        """
        return TPCCDriver(
            self.table_counts(),
            seed=seed,
            payment_fraction=payment_fraction,
            delivery_fraction=delivery_fraction,
            o_id_offset=o_id_offset,
            o_id_stride=o_id_stride,
            remote_fraction=remote_fraction,
        )

    def table_counts(self) -> Dict[str, int]:
        """Every table's current row count — the key space TPC-C drivers
        draw from, and the ``counts`` a one-shard
        :class:`~repro.cluster.cluster.PushTapCluster` wraps this engine
        with."""
        return {name: t.num_rows for name, t in self.db.tables.items()}

    @property
    def commits_since_defrag(self) -> int:
        """Transactions committed since the last :meth:`defragment`."""
        return self.oltp.committed - self._committed_at_defrag

    def defrag_due(self) -> bool:
        """Whether defragmentation should run before the next transaction."""
        if self.defrag_period and self.commits_since_defrag >= self.defrag_period:
            return True
        for runtime in self.db.tables.values():
            delta = runtime.mvcc.delta
            if delta.high_water_rows >= 0.8 * delta.capacity_rows:
                return True
        return False

    # ------------------------------------------------------------------
    # Defragmentation
    # ------------------------------------------------------------------
    def defragment(self, strategy: str = Strategy.HYBRID) -> Dict[str, DefragResult]:
        """Defragment every table (OLTP paused, §5.3)."""
        ts = self.db.oracle.read_timestamp()
        results: Dict[str, DefragResult] = {}
        first = True
        for name, executor in self._defrag_executors.items():
            results[name] = executor.run(ts, strategy, include_fixed=first)
            first = False
            self.stats.defrag_time += results[name].total_time
        self.stats.defrag_runs += 1
        self._committed_at_defrag = self.oltp.committed
        if self.ivm is not None:
            # Compaction cleared the version journals and released superseded
            # delta versions — views must resync from the new horizon.
            self.ivm.on_defrag(ts)
        return results

    # ------------------------------------------------------------------
    # OLAP path
    # ------------------------------------------------------------------
    def query(self, name: str) -> QueryResult:
        """Run an analytical query at the current read timestamp."""
        inj = faults.active()
        if inj.enabled and inj.fire(fault_plan.DEFRAG_MID_QUERY):
            # Defragmentation triggers in the middle of the query interval
            # (e.g. a delta region crossing its high-water mark right as
            # the query scheduler fires); the query then runs against the
            # freshly rebuilt snapshot, which must stay consistent.
            inj.detect(fault_plan.DEFRAG_MID_QUERY)
            self.defragment()
        ts = self.db.oracle.read_timestamp()
        tel = telemetry.active()
        # The query frame opens *after* any fault-injected defrag above —
        # defrag time is accounted separately, not in the query.
        with tel.span("olap.query", {"query": name}) as frame:
            result = run_query(name, self.olap, self.db, ts)
            self.stats.queries += 1
            self.stats.olap_time += result.total_time
            if tel.enabled:
                tel.counter("olap.queries").inc()
                tel.histogram(f"olap.query.{name}.latency_ns").observe(result.total_time)
                # Sub-spans (snapshots, operator scans) advanced the cursor
                # by the PIM-side time; the remainder of the query's total
                # is CPU glue (harvest, merges, bucket exchange), recorded
                # as its own serial span, above float noise, so the frame
                # covers the whole query.
                gap = result.total_time - (tel.sim_time - frame.start)
                if gap > 1e-9:
                    tel.record_span("olap.cpu", gap, {"query": name})
        return result

    def enable_ivm(self, queries: Sequence[str] = ("Q1", "Q6", "Q9")) -> "IVMManager":
        """Attach (or extend) the incremental-view layer.

        Registers one materialized view per named query; already
        registered views are kept. Returns the manager.
        """
        from repro.ivm.manager import IVMManager

        if self.ivm is None:
            self.ivm = IVMManager(self)
        for name in queries:
            self.ivm.register(name)
        return self.ivm

    def enable_durability(
        self, path: str, checkpoint_every: int = 0, sync: bool = True
    ) -> "DurabilityManager":
        """Attach a write-ahead log (plus leveled checkpoint store) at ``path``.

        Every subsequently committed transaction appends a redo record to
        ``<path>/wal.log`` before it is counted committed; with
        ``checkpoint_every > 0``, every that-many commits the accumulated
        redo state is folded and spilled into the on-disk leveled store
        and the WAL rotated. Append/fsync and spill costs are charged
        through the §6.3 flush model into the committing transaction.
        Returns the manager (also kept as ``self.durability``).
        """
        from repro.wal.manager import DurabilityManager

        if self.durability is not None:
            raise ConfigError("durability is already enabled on this engine")
        manager = DurabilityManager(
            self, path, checkpoint_every=checkpoint_every, sync=sync
        )
        self.durability = manager
        self.oltp.durability = manager
        return manager

    def query_ivm(self, name: str) -> QueryResult:
        """Answer a registered view incrementally at the current read ts.

        Counterpart of :meth:`query`: same result rows and engine-stats
        accounting, but served from maintained view state — the cost is
        CPU-side delta folding, with no PIM launch and no mode switch.
        """
        if self.ivm is None:
            raise QueryError("incremental views are not enabled on this engine")
        ts = self.db.oracle.read_timestamp()
        result = self.ivm.answer(name, ts)
        self.stats.queries += 1
        self.stats.olap_time += result.total_time
        tel = telemetry.active()
        if tel.enabled:
            tel.counter("olap.queries").inc()
            tel.counter("olap.ivm.queries").inc()
            tel.histogram(f"olap.query.{name}.latency_ns").observe(result.total_time)
            if result.total_time > 1e-9:
                tel.record_span("olap.ivm", result.total_time, {"query": name})
        return result

    def query_batch(
        self, names: Sequence[str], use_ivm: bool = False
    ) -> "OLAPBatchResult":
        """Run several analytical queries under one bank mode switch.

        The controller's mode-batch hook holds the banks in PIM mode for
        the whole batch, so every query's ``LS`` launches skip their
        per-launch handover — the amortisation PUSHtap's cheap mode
        switches make worthwhile only when launches are batched (§1, and
        the UPMEM launch-overhead observation). The switch cost itself is
        charged to OLAP time but to no individual query.

        With ``use_ivm`` the batch is answered from the incremental-view
        layer instead: no mode switch is needed at all (delta folding is
        pure CPU work), so ``switch_time`` is zero.
        """
        if use_ivm:
            return OLAPBatchResult(
                results=[self.query_ivm(name) for name in names], switch_time=0.0
            )
        switch_time = self.olap.begin_mode_batch()
        try:
            results = [self.query(name) for name in names]
        finally:
            switch_time += self.olap.end_mode_batch()
        self.stats.olap_time += switch_time
        return OLAPBatchResult(results=results, switch_time=switch_time)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def table(self, name: str) -> TableRuntime:
        """Access one table's runtime."""
        return self.db.table(name)

    @property
    def num_units(self) -> int:
        """PIM units across all simulated ranks."""
        return sum(len(units) for units in self.rank_units)

    def memory_bytes(self) -> Dict[str, int]:
        """Host memory by layer, in bytes: the MVCC per-row arrays and
        journals, the snapshot bitmaps and the WRAM matrices; and
        ``index_entries``, the keys the hash indexes hold."""
        tables = self.db.tables.values()
        return {
            "mvcc_rows": sum(t.mvcc.row_bytes for t in tables),
            "mvcc_journal": sum(t.mvcc.journal_bytes for t in tables),
            "snapshot_bits": sum(t.snapshots.bits_bytes for t in tables),
            "wram": sum(units.wram.nbytes for units in self.rank_units),
            "index_entries": sum(len(t.index) for t in tables if t.index is not None),
        }
