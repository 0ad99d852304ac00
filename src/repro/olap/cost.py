"""Analytic OLAP scan cost model — the large-scale counterpart of the
functional two-phase executor.

The functional simulator moves real bytes, which is feasible at reduced
table scale. Figures whose x-axes reach the paper's full scale (60 M
order lines, millions of transactions) use this analytic model instead;
it is built from the *same* per-phase quantities the executor produces —
chunked WRAM loads, per-element compute steps, and controller overheads —
so the two agree by construction at small scale (validated in
``tests/test_cost_model.py``).

The roofline's rules live here too, once each: the per-unit stream
ceiling (:func:`scan_bandwidth_per_unit`), the bound label
(:func:`classify`) and a measured point's derived metrics
(:class:`RooflinePoint`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import ceil
from typing import Dict, Optional

from repro.core.config import SystemConfig
from repro.errors import QueryError
from repro.pim.pim_unit import compute_phase_time
from repro.pim.timing import effective_stream_bandwidth

__all__ = [
    "ScanCost",
    "RooflinePoint",
    "classify",
    "column_scan_cost",
    "scan_bandwidth_per_unit",
]


@dataclass(frozen=True)
class ScanCost:
    """Cost of scanning one column across all PIM units."""

    total_time: float
    cpu_blocked_time: float
    load_time: float
    compute_time: float
    control_time: float
    phases: int
    bytes_streamed: int

    @property
    def control_fraction(self) -> float:
        """Control overhead share of total time."""
        return self.control_time / self.total_time if self.total_time else 0.0


def scan_bandwidth_per_unit(config: SystemConfig) -> float:
    """Effective per-unit streaming bandwidth in bytes/ns.

    The DRAM-side streaming rate capped by the unit's bandwidth spec
    (1 GB/s for the UPMEM-like unit of Table 1), the cap
    ``PIMUnit._dram_time`` enforces: the roofline's per-unit stream
    ceiling.
    """
    raw = effective_stream_bandwidth(
        config.timings, config.geometry, config.pim.access_granularity
    )
    return min(raw, config.pim.dram_bandwidth)


def classify(load_time: float, compute_time: float, control_time: float) -> str:
    """Name the dominant simulated-time component of an operator.

    ``memory`` when DRAM streaming dominates, ``compute`` when the PIM
    pipelines do, ``control`` when offload orchestration does; ties
    prefer memory, then compute.
    """
    if load_time >= compute_time and load_time >= control_time:
        return "memory"
    if compute_time >= control_time:
        return "compute"
    return "control"


@dataclass(frozen=True)
class RooflinePoint:
    """One measured point against a stream ceiling.

    Bandwidths are bytes/ns (= GB/s). Each subclass also has a
    ``total_time`` (ns), which :meth:`as_dict` reports.
    """

    dram_bytes: int
    elements: int
    load_time: float
    compute_time: float
    ceiling_bandwidth: float
    bound: str

    @property
    def effective_bandwidth(self) -> float:
        """Achieved DRAM bandwidth during load phases, bytes/ns."""
        return self.dram_bytes / self.load_time if self.load_time else 0.0

    @property
    def operational_intensity(self) -> float:
        """Elements processed per DRAM byte moved (roofline x-axis)."""
        return self.elements / self.dram_bytes if self.dram_bytes else 0.0

    @property
    def ceiling_ratio(self) -> float:
        """Achieved bandwidth as a fraction of the stream ceiling."""
        if not self.ceiling_bandwidth:
            return 0.0
        return self.effective_bandwidth / self.ceiling_bandwidth

    def as_dict(self) -> Dict[str, object]:
        """Plain dict (for JSON snapshots), derived values included."""
        return {
            **asdict(self),
            "total_time": self.total_time,
            "effective_bandwidth": self.effective_bandwidth,
            "operational_intensity": self.operational_intensity,
            "ceiling_ratio": self.ceiling_ratio,
        }


def column_scan_cost(
    config: SystemConfig,
    num_rows: int,
    column_width: int,
    part_row_width: Optional[int] = None,
    controller_kind: str = "pushtap",
    parallel_units: Optional[int] = None,
    wram_bytes: Optional[int] = None,
) -> ScanCost:
    """Cost of one full-column scan under two-phase execution (§6.2).

    ``part_row_width`` is the per-row footprint streamed (the row width of
    the part holding the column — wider than ``column_width`` when
    padding/other columns share the slot); default is a compact column.
    ``parallel_units`` defaults to every PIM unit in the system
    (block-circulant placement guarantees this for long scans, §4.2).
    """
    if num_rows <= 0 or column_width <= 0:
        raise QueryError("num_rows and column_width must be positive")
    footprint = part_row_width if part_row_width is not None else column_width
    if footprint < column_width:
        raise QueryError("part_row_width cannot be below the column width")
    units = parallel_units if parallel_units is not None else config.total_pim_units
    if units <= 0:
        raise QueryError("parallel_units must be positive")
    wram = wram_bytes if wram_bytes is not None else config.pim.wram_bytes
    load_buffer = wram // 2

    # The part region is streamed contiguously (stride == row width), so
    # sub-granule footprints pack multiple rows per 8 B access — per-row
    # cost is exactly the footprint. (Skipping *holes* below the granule
    # is impossible; fragmentation enters via inflated row counts,
    # Fig. 11b.)
    total_bytes = num_rows * footprint
    per_unit_bytes = total_bytes / units
    phases = max(1, ceil(per_unit_bytes / load_buffer))
    chunk_bytes = per_unit_bytes / phases

    bw = scan_bandwidth_per_unit(config)
    load_per_phase = chunk_bytes / bw
    elements_per_phase = (num_rows / units) / phases
    compute_per_phase = compute_phase_time(config.pim, elements_per_phase, "filter")

    handover = config.mode_switch_latency * config.total_ranks
    if controller_kind == "pushtap":
        # launch(LS)+poll + launch(compute)+poll: 4 requests + one
        # handover per LS phase (compute phases are WRAM-only).
        control_per_phase = 4 * config.controller_request_latency + handover
        blocked_per_phase = control_per_phase + load_per_phase
        offload_control = 0.0
    elif controller_kind == "original":
        # Per phase the CPU messages every unit for launch+poll of both
        # sub-phases; the bank handover is paid once for the whole
        # offload (§2.1 — banks stay locked across phases).
        msg = config.total_pim_units * config.unit_message_latency
        control_per_phase = 4 * msg
        blocked_per_phase = control_per_phase + load_per_phase + compute_per_phase
        offload_control = handover
    else:
        raise QueryError(f"unknown controller kind {controller_kind!r}")

    total_per_phase = control_per_phase + load_per_phase + compute_per_phase
    return ScanCost(
        total_time=phases * total_per_phase + offload_control,
        cpu_blocked_time=phases * blocked_per_phase + offload_control,
        load_time=phases * load_per_phase,
        compute_time=phases * compute_per_phase,
        control_time=phases * control_per_phase + offload_control,
        phases=phases,
        bytes_streamed=int(total_bytes),
    )
