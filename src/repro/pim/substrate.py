"""Substrate registry — named PIM hardware models with derived ceilings.

A :class:`Substrate` bundles a full :class:`~repro.core.config.SystemConfig`
(DRAM timings + device geometry + PIM/CPU blocks) with the roofline
ceilings derived from it: peak stream bandwidth per bank/unit, per rank,
and system-wide, the random cache-line latency floor, and the
control-path overhead of one offload. The roofline bench and the
per-operator bandwidth accounting both classify observed operator
behaviour against the *active* substrate's ceilings.

Three presets ship in the registry:

* ``ddr5`` — the paper's default DIMM-based PIM server (Table 1);
  bit-identical to :func:`~repro.core.config.dimm_system`.
* ``hbm3`` — the HBM-based comparison system (Table 1, HBM block).
* ``lpddr5x-pim`` — a mobile-class LPDDR5X-PIM stack per the LP5X-PIM
  Sim tech note (PAPERS.md), beyond the paper's two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.core.config import (
    SystemConfig,
    dimm_system,
    hbm_system,
    lpddr5x_system,
)
from repro.errors import ConfigError
from repro.pim.timing import effective_stream_bandwidth, random_line_time

__all__ = [
    "Substrate",
    "get_substrate",
    "register_substrate",
    "available_substrates",
    "DEFAULT_SUBSTRATE",
]

DEFAULT_SUBSTRATE = "ddr5"


@dataclass(frozen=True)
class Substrate:
    """A named hardware model plus its derived roofline ceilings.

    All bandwidths are in bytes/ns (numerically equal to GB/s); all
    latencies in ns, matching the rest of the simulator.
    """

    name: str
    config: SystemConfig
    description: str = ""

    # ------------------------------------------------------------------
    # Derived ceilings
    # ------------------------------------------------------------------
    @property
    def stream_bandwidth_per_unit(self) -> float:
        """Peak sustainable stream bandwidth of one PIM unit (bank).

        The lower of what the bank's DRAM timings allow and the unit's
        internal DRAM port bandwidth — the same cap
        :meth:`repro.pim.pim_unit.PIMUnit._dram_time` enforces.
        """
        dram = effective_stream_bandwidth(
            self.config.timings,
            self.config.geometry,
            self.config.pim.access_granularity,
        )
        return min(dram, self.config.pim.dram_bandwidth)

    @property
    def stream_bandwidth_per_rank(self) -> float:
        """Aggregate stream ceiling of one rank's PIM units."""
        return self.stream_bandwidth_per_unit * self.config.pim.units_per_rank

    @property
    def stream_bandwidth_system(self) -> float:
        """Aggregate stream ceiling of every PIM unit in the system."""
        return self.stream_bandwidth_per_unit * self.config.total_pim_units

    @property
    def random_line_ns(self) -> float:
        """Latency floor of one random cache-line access (no row hits)."""
        return random_line_time(1, self.config.timings)

    @property
    def random_line_bandwidth(self) -> float:
        """Bandwidth ceiling of conflict-dominated random line traffic."""
        return self.config.geometry.cache_line_bytes / self.random_line_ns

    @property
    def control_overhead_ns(self) -> float:
        """Control-path cost of one offload (mode switches + launch/poll).

        Two mode switches (CPU→PIM and back) plus one disguised launch
        and one poll request through the memory controller (§6.1/§7.1).
        """
        cfg = self.config
        return 2.0 * cfg.mode_switch_latency + 2.0 * cfg.controller_request_latency

    @property
    def cpu_bandwidth(self) -> float:
        """Aggregate CPU-side memory bandwidth, bytes/ns."""
        return self.config.total_cpu_bandwidth

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------
    @staticmethod
    def classify(load_time: float, compute_time: float, control_time: float) -> str:
        """Name the dominant simulated-time component of an operator.

        ``memory`` when DRAM streaming dominates, ``compute`` when the
        PIM pipelines do, ``control`` when offload orchestration does.
        """
        if load_time >= compute_time and load_time >= control_time:
            return "memory"
        if compute_time >= control_time:
            return "compute"
        return "control"

    def summary(self) -> Dict[str, object]:
        """The ceilings as a plain dict (for JSON snapshots)."""
        return {
            "name": self.name,
            "description": self.description,
            "stream_bandwidth_per_unit": self.stream_bandwidth_per_unit,
            "stream_bandwidth_per_rank": self.stream_bandwidth_per_rank,
            "stream_bandwidth_system": self.stream_bandwidth_system,
            "random_line_ns": self.random_line_ns,
            "random_line_bandwidth": self.random_line_bandwidth,
            "control_overhead_ns": self.control_overhead_ns,
            "cpu_bandwidth": self.cpu_bandwidth,
            "total_pim_units": float(self.config.total_pim_units),
        }


@dataclass
class _Registry:
    factories: Dict[str, Callable[[], SystemConfig]] = field(default_factory=dict)
    descriptions: Dict[str, str] = field(default_factory=dict)

    def register(
        self, name: str, factory: Callable[[], SystemConfig], description: str = ""
    ) -> None:
        if name in self.factories:
            raise ConfigError(f"substrate {name!r} already registered")
        self.factories[name] = factory
        self.descriptions[name] = description

    def get(self, name: str) -> Substrate:
        try:
            factory = self.factories[name]
        except KeyError:
            known = ", ".join(sorted(self.factories))
            raise ConfigError(f"unknown substrate {name!r} (known: {known})") from None
        return Substrate(name=name, config=factory(), description=self.descriptions[name])


_REGISTRY = _Registry()


def register_substrate(
    name: str, factory: Callable[[], SystemConfig], description: str = ""
) -> None:
    """Register a new named substrate (``factory`` builds its config)."""
    _REGISTRY.register(name, factory, description)


def get_substrate(name: str = DEFAULT_SUBSTRATE) -> Substrate:
    """Look up a substrate by name; raises ``ConfigError`` if unknown."""
    return _REGISTRY.get(name)


def available_substrates() -> List[str]:
    """Sorted names of every registered substrate."""
    return sorted(_REGISTRY.factories)


register_substrate(
    "ddr5",
    dimm_system,
    "DDR5-3200 DIMM-based PIM server (paper Table 1 default)",
)
register_substrate(
    "hbm3",
    hbm_system,
    "HBM3-2Gbps comparison system (paper Table 1, HBM block)",
)
register_substrate(
    "lpddr5x-pim",
    lpddr5x_system,
    "LPDDR5X-8533 mobile PIM stack (LP5X-PIM Sim tech note)",
)
