"""PrIM-style microbenchmarks on the query path (roofline observability).

Each primitive runs the code the OLAP queries run — the planned operator
scans of :mod:`repro.olap.operators`, through :class:`OLAPEngine` where
the query does — on an engine with ONE PIM unit: the sweep table
(:func:`_build_engine`) on the substrate's configuration with a
one-device, one-bank rank, so each key column sits in its own dense part.
Time and traffic are that unit's work counters
(:class:`~repro.pim.pim_unit.PIMUnitStats`), so a point's effective
bandwidth is *achieved* bandwidth under the substrate's timing model,
directly comparable to the substrate's stream ceiling. This mirrors the
PrIM methodology: measure the primitive first, then explain end-to-end
operators (:mod:`repro.bench.roofline`, the same table on the full rank)
as compositions of the primitives' rooflines.

* ``scan`` — a filter scan's load phases alone (column and bitmap);
* ``filter`` — :meth:`OLAPEngine.filter` of ``v < 32768``;
* ``aggregate`` — :meth:`OLAPEngine.aggregate` of ``v`` into one group;
* ``join`` — two hash scans of ``k``, then :meth:`PIMUnit.op_join` per
  1,024-row bucket chunk;
* ``copy`` — :meth:`PIMUnit.copy_rows` of every row's ``v`` slot into the
  data region's free half, the bank-local move of §5.3 (Eq. 2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import SUBSTRATES, SystemConfig, substrate_config
from repro.core.engine import PushTapEngine
from repro.errors import ConfigError
from repro.format.schema import Column, TableSchema
from repro.mvcc.metadata import Region
from repro.olap.cost import RooflinePoint, classify, scan_bandwidth_per_unit
from repro.olap.engine import QueryTiming
from repro.olap.operators import FilterOperation, RegionRows
from repro.pim.pim_unit import Condition

__all__ = [
    "MicroPoint",
    "PRIMITIVES",
    "DEFAULT_SIZES",
    "run_primitive",
    "run_micro",
    "fit_saturation",
]

#: Rows per block of the one-unit table (the roofline's ``block_rows``
#: sets the operator sweep's blocks only).
_BLOCK_ROWS = 256
#: Rows per side of one join bucket chunk.
_JOIN_ROWS = 1024
#: The filter predicate of both sweeps: about half of ``v`` matches.
_PREDICATE = Condition("lt", 32768)

#: Default table sizes (rows) swept per primitive. A few rows are one
#: partial block, exposing the fixed activation and bitmap overhead (the
#: saturation knee); large tables fill many WRAM phases and amortize it.
DEFAULT_SIZES = (8, 64, 1024, 16384, 65536)


@dataclass(frozen=True)
class MicroPoint(RooflinePoint):
    """One (substrate, primitive, size) measurement."""

    substrate: str
    primitive: str
    rows: int

    @property
    def total_time(self) -> float:
        """Unit-busy time of the sweep point (ns)."""
        return self.load_time + self.compute_time


def _build_engine(config: SystemConfig, rows: int, block_rows: int) -> PushTapEngine:
    """The sweep table on ``config``, its snapshot current: ``rows``
    deterministic rows of a join key ``k``, a value ``v`` (~50% filter
    selectivity) and a group key ``g`` (64 groups)."""
    schema = TableSchema.of("points", (Column("k", 4), Column("v", 4), Column("g", 2)))
    values = [
        {"k": (i * 2654435761) & 0xFFFFFFFF, "v": (i * 48271) % 65536, "g": i % 64}
        for i in range(rows)
    ]
    engine = PushTapEngine.build_custom(
        {"points": schema}, {"points": ("k", "v", "g")}, {"points": values},
        config=config, block_rows=block_rows,
    )
    engine.table("points").snapshots.update_to(engine.db.oracle.read_timestamp())
    return engine


def _unit_engine(config: SystemConfig, rows: int) -> PushTapEngine:
    """The sweep table on ``config`` over one device of one bank: one unit."""
    geometry = replace(config.geometry, devices_per_rank=1, banks_per_device=1)
    return _build_engine(replace(config, geometry=geometry), rows, _BLOCK_ROWS)


def _run_scan(engine: PushTapEngine, rows: int) -> None:
    """The load phases of a filter scan: stream the column and its bitmap."""
    table = engine.table("points")
    op = FilterOperation(table.storage, engine.units, "v", _PREDICATE, RegionRows(rows))
    for chunk in range(op.num_chunks()):
        op.load(chunk)


def _run_filter(engine: PushTapEngine, rows: int) -> None:
    """The operator sweep's predicate scan."""
    table = engine.table("points")
    engine.olap.filter(table, "v", _PREDICATE, QueryTiming(), RegionRows(rows))


def _run_aggregate(engine: PushTapEngine, rows: int) -> None:
    """A single-group sum of the value column."""
    table = engine.table("points")
    indices = np.zeros(rows, dtype=np.uint16)
    engine.olap.aggregate(table, "v", indices, 1, QueryTiming(), RegionRows(rows))


def _run_join(engine: PushTapEngine, rows: int) -> None:
    """Hash both sides of a self-join on ``k``, then match each bucket
    chunk in the unit's WRAM: probe hashes, build hashes, then the pairs."""
    table = engine.table("points")
    timing, selection = QueryTiming(), RegionRows(rows)
    build = engine.olap.hash_scan(table, "k", timing, selection)
    probe = engine.olap.hash_scan(table, "k", timing, selection)
    (unit,) = engine.units.values()
    for base in range(0, rows, _JOIN_ROWS):
        n = min(_JOIN_ROWS, rows - base)
        sides = (probe.hashes[base : base + n], build.hashes[base : base + n])
        unit.wram_write(0, np.concatenate(sides).view(np.uint8))
        unit.op_join(0, n * 4, n * 8, n, n)


def _run_copy(engine: PushTapEngine, rows: int) -> None:
    """Copy every row's ``v`` slot into the data region's free half (the
    build's insert headroom doubles the region), bank-locally."""
    (unit,) = engine.units.values()
    scans = list(engine.table("points").storage.column_scan_plan("v", Region.DATA, 2 * rows))
    addrs = np.concatenate(
        [scan.dram_addr + scan.stride * np.arange(scan.num_rows) for scan in scans]
    ) - unit.bank.start
    unit.copy_rows(addrs[:rows], addrs[rows:], scans[0].chunk)


#: Primitive name → driver over a one-unit engine of that many rows.
PRIMITIVES: Dict[str, Callable[[PushTapEngine, int], None]] = {
    "copy": _run_copy,
    "scan": _run_scan,
    "filter": _run_filter,
    "aggregate": _run_aggregate,
    "join": _run_join,
}


def run_primitive(substrate: str, primitive: str, rows: int) -> MicroPoint:
    """Run one primitive over a fresh ``rows``-row one-unit table of the
    named substrate; returns its point, read off the unit's work counters."""
    config = substrate_config(substrate)
    try:
        driver = PRIMITIVES[primitive]
    except KeyError:
        raise ConfigError(
            f"unknown primitive {primitive!r} (known: {', '.join(sorted(PRIMITIVES))})"
        ) from None
    if rows <= 0:
        raise ConfigError(f"primitive sweep size must be positive, got {rows}")
    engine = _unit_engine(config, rows)
    (unit,) = engine.units.values()
    driver(engine, rows)
    stats = unit.stats
    return MicroPoint(
        substrate=substrate,
        primitive=primitive,
        rows=rows,
        dram_bytes=stats.dram_bytes_read + stats.dram_bytes_written,
        elements=stats.elements_processed,
        load_time=stats.load_time,
        compute_time=stats.compute_time,
        ceiling_bandwidth=scan_bandwidth_per_unit(config),
        bound=classify(stats.load_time, stats.compute_time, 0.0),
    )


def run_micro(
    substrates: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    primitives: Optional[Sequence[str]] = None,
) -> List[MicroPoint]:
    """Sweep every (substrate, primitive, size) cell; returns all points."""
    names = list(substrates) if substrates else sorted(SUBSTRATES)
    prims = list(primitives) if primitives else sorted(PRIMITIVES)
    return [
        run_primitive(name, primitive, rows)
        for name in names
        for primitive in prims
        for rows in sizes
    ]


def fit_saturation(sizes_bytes: Sequence[float], bandwidths: Sequence[float]) -> Dict[str, float]:
    """Fit the saturation curve ``bw(s) = B∞ · s / (s + s½)``.

    Linearized as ``1/bw = 1/B∞ + (s½/B∞) · (1/s)`` and solved by least
    squares: ``B∞`` is the asymptotic bandwidth, ``s½`` the operand size
    at which half of it is achieved (the fixed-overhead knee).
    """
    pairs = [
        (s, b)
        for s, b in zip(sizes_bytes, bandwidths)
        if s > 0 and b > 0
    ]
    if len(pairs) < 2:
        return {"asymptote_bandwidth": 0.0, "half_size_bytes": 0.0}
    x = 1.0 / np.array([s for s, _ in pairs], dtype=float)
    y = 1.0 / np.array([b for _, b in pairs], dtype=float)
    design = np.stack([np.ones_like(x), x], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    intercept, slope = float(coeffs[0]), float(coeffs[1])
    if intercept <= 0:
        # Bandwidth did not saturate over the swept range; report the
        # largest observed point instead of a nonsensical asymptote.
        return {"asymptote_bandwidth": max(b for _, b in pairs), "half_size_bytes": 0.0}
    return {
        "asymptote_bandwidth": 1.0 / intercept,
        "half_size_bytes": max(slope / intercept, 0.0),
    }
