"""System configuration — the reproduction of the paper's Table 1.

Every experiment instantiates a :class:`SystemConfig`, usually via the
factory functions :func:`dimm_system` (the paper's default DIMM-based PIM
server) or :func:`hbm_system` (the HBM-based comparison system from
Section 7.3). All timing values come verbatim from Table 1 of the paper.
:data:`SUBSTRATES` names these two and :func:`lpddr5x_system`, a mobile
stack beyond the paper's; :func:`substrate_config` builds one by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Tuple

from repro.errors import ConfigError
from repro.units import KIB, US, gb_per_s

__all__ = [
    "DRAMTimings",
    "DeviceGeometry",
    "PIMUnitConfig",
    "CPUConfig",
    "SystemConfig",
    "AreaModel",
    "DDR5_3200_TIMINGS",
    "HBM3_TIMINGS",
    "LPDDR5X_8533_TIMINGS",
    "dimm_system",
    "hbm_system",
    "lpddr5x_system",
    "SUBSTRATES",
    "substrate_config",
]


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class DRAMTimings:
    """DRAM timing parameters in nanoseconds (Table 1).

    Attribute names follow the JEDEC-style parameter names used in the
    paper: ``tBURST`` is the data-burst time of one access, ``tRCD`` the
    activate-to-read delay, ``tCL`` the CAS latency, and so on.
    """

    tBURST: float
    tRCD: float
    tCL: float
    tRP: float
    tRAS: float
    tRRD: float
    tRFC: float
    tWR: float
    tWTR: float
    tRTP: float
    tRTW: float
    tCS: float
    tREFI: float

    def __post_init__(self) -> None:
        for name in (
            "tBURST", "tRCD", "tCL", "tRP", "tRAS", "tRRD", "tRFC",
            "tWR", "tWTR", "tRTP", "tRTW", "tCS", "tREFI",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        # These two appear as divisors/steps in the analytic model and
        # would produce zero-time streams or a divide-by-zero refresh
        # penalty if allowed to be zero.
        if self.tBURST <= 0:
            raise ConfigError(f"tBURST must be positive, got {self.tBURST}")
        if self.tREFI <= 0:
            raise ConfigError(f"tREFI must be positive, got {self.tREFI}")

    def row_hit_read_latency(self) -> float:
        """Latency of a read that hits the open row buffer."""
        return self.tCL + self.tBURST

    def row_conflict_read_latency(self) -> float:
        """Latency of a read that must close another open row first."""
        return self.tRP + self.tRCD + self.tCL + self.tBURST

    def refresh_utilization_penalty(self) -> float:
        """Fraction of time the DRAM is unavailable due to refresh."""
        return self.tRFC / self.tREFI


#: DDR5-3200 timings from Table 1 (DIMM-based PIM system).
DDR5_3200_TIMINGS = DRAMTimings(
    tBURST=2.5,
    tRCD=7.5,
    tCL=7.5,
    tRP=7.5,
    tRAS=16.3,
    tRRD=2.5,
    tRFC=121.9,
    tWR=15.0,
    tWTR=11.2,
    tRTP=3.75,
    tRTW=4.4,
    tCS=4.4,
    tREFI=3_900.0,
)

#: HBM3-2Gbps timings from Table 1 (HBM-based comparison system).
HBM3_TIMINGS = DRAMTimings(
    tBURST=2.0,
    tRCD=3.5,
    tCL=3.5,
    tRP=3.5,
    tRAS=8.5,
    tRRD=2.0,
    tRFC=175.0,
    tWR=4.0,
    tWTR=1.5,
    tRTP=1.0,
    tRTW=1.5,
    tCS=1.5,
    tREFI=2_000.0,
)

#: LPDDR5X-8533 timings for a mobile-class PIM stack, per the LP5X-PIM
#: Sim tech note (PAPERS.md). LPDDR5X trades latency for pin bandwidth
#: and power: BL32 on a x16 device gives a long burst, activate/precharge
#: are roughly 2x DDR5, and all-bank refresh is amortised over the
#: standard 3.9 us interval.
LPDDR5X_8533_TIMINGS = DRAMTimings(
    tBURST=3.75,
    tRCD=18.0,
    tCL=17.0,
    tRP=18.0,
    tRAS=42.0,
    tRRD=7.5,
    tRFC=210.0,
    tWR=34.0,
    tWTR=12.0,
    tRTP=7.5,
    tRTW=4.0,
    tCS=2.0,
    tREFI=3_906.0,
)


@dataclass(frozen=True)
class DeviceGeometry:
    """Geometry of one memory rank and its sub-modules.

    ``devices_per_rank`` is the number of DRAM chips in a rank (the ADE
    dimension the CPU interleaves across); ``interleave_granularity`` is
    the number of bytes each device contributes to one interleaved burst
    (8 B for DIMM per the DDR protocol, 64 B for HBM per Section 8).
    """

    devices_per_rank: int = 8
    banks_per_device: int = 8
    rows_per_bank: int = 131_072
    columns_per_row: int = 1024
    interleave_granularity: int = 8
    row_buffer_bytes: int = 1024

    def __post_init__(self) -> None:
        if self.devices_per_rank <= 0:
            raise ConfigError("devices_per_rank must be positive")
        if self.banks_per_device <= 0:
            raise ConfigError("banks_per_device must be positive")
        if self.rows_per_bank <= 0:
            raise ConfigError("rows_per_bank must be positive")
        if self.columns_per_row <= 0:
            raise ConfigError("columns_per_row must be positive")
        # Address interleaving and row-buffer indexing both use these as
        # power-of-two strides (byte_address // row_buffer_bytes etc.).
        if not _is_power_of_two(self.interleave_granularity):
            raise ConfigError(
                "interleave_granularity must be a positive power of two, "
                f"got {self.interleave_granularity}"
            )
        if not _is_power_of_two(self.row_buffer_bytes):
            raise ConfigError(
                "row_buffer_bytes must be a positive power of two, "
                f"got {self.row_buffer_bytes}"
            )

    @property
    def cache_line_bytes(self) -> int:
        """Bytes delivered by one interleaved burst across the rank."""
        return self.devices_per_rank * self.interleave_granularity


@dataclass(frozen=True)
class PIMUnitConfig:
    """Configuration of one PIM unit (Table 1, PIM Units block)."""

    frequency_mhz: float = 500.0
    tasklets: int = 16
    dram_bandwidth: float = gb_per_s(1.0)
    wram_bytes: int = 64 * KIB
    wire_width_bits: int = 64
    units_per_rank: int = 64

    def __post_init__(self) -> None:
        if self.wram_bytes <= 0:
            raise ConfigError("wram_bytes must be positive")
        if self.tasklets <= 0:
            raise ConfigError("tasklets must be positive")
        if self.frequency_mhz <= 0:
            raise ConfigError(f"frequency_mhz must be positive, got {self.frequency_mhz}")
        if self.dram_bandwidth <= 0:
            raise ConfigError(f"dram_bandwidth must be positive, got {self.dram_bandwidth}")
        if self.units_per_rank <= 0:
            raise ConfigError(f"units_per_rank must be positive, got {self.units_per_rank}")
        if self.wire_width_bits <= 0 or self.wire_width_bits % 8:
            raise ConfigError(
                f"wire_width_bits must be a positive multiple of 8, got {self.wire_width_bits}"
            )

    @property
    def cycle_ns(self) -> float:
        """Duration of one PIM clock cycle in nanoseconds."""
        return 1_000.0 / self.frequency_mhz

    @property
    def load_buffer_bytes(self) -> int:
        """WRAM bytes available for staged data (half of WRAM, §6.2)."""
        return self.wram_bytes // 2

    @property
    def access_granularity(self) -> int:
        """Minimum DRAM access size of a PIM unit (64-bit wire → 8 B)."""
        return self.wire_width_bits // 8


@dataclass(frozen=True)
class CPUConfig:
    """Host CPU configuration (Table 1, Host CPU block)."""

    cores: int = 16
    frequency_ghz: float = 3.2
    l1i_bytes: int = 32 * KIB
    l1d_bytes: int = 32 * KIB
    l2_bytes: int = 1 * KIB * KIB
    l3_bytes: int = 22 * KIB * KIB
    cache_line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigError(f"cores must be positive, got {self.cores}")
        if self.frequency_ghz <= 0:
            raise ConfigError(f"frequency_ghz must be positive, got {self.frequency_ghz}")


@dataclass(frozen=True)
class SystemConfig:
    """Full system configuration tying the pieces together.

    ``pim_channels``/``pim_ranks_per_channel`` describe the PIM-enabled
    memory; a matching amount of conventional DRAM backs the CPU-only
    space (Table 1, System Configuration block).
    """

    name: str = "dimm"
    memory_kind: str = "dimm"
    timings: DRAMTimings = DDR5_3200_TIMINGS
    geometry: DeviceGeometry = field(default_factory=DeviceGeometry)
    pim: PIMUnitConfig = field(default_factory=PIMUnitConfig)
    cpu: CPUConfig = field(default_factory=CPUConfig)
    channels: int = 4
    ranks_per_channel: int = 4
    #: Latency of handing over bank access control, per rank (§7.1).
    mode_switch_latency: float = 0.2 * US
    #: Per-PIM-unit invoke/poll message cost on the original architecture
    #: (thousands of units → tens of microseconds per offload, §2.1).
    unit_message_latency: float = 0.02 * US
    #: Latency of one launch/poll disguised memory access (PUSHtap, §6.1).
    controller_request_latency: float = 0.05 * US
    #: Peak CPU-side memory bandwidth per channel, bytes/ns.
    cpu_channel_bandwidth: float = gb_per_s(25.6)

    def __post_init__(self) -> None:
        if self.memory_kind not in ("dimm", "hbm", "lpddr5x"):
            raise ConfigError(f"unknown memory kind {self.memory_kind!r}")
        if self.channels <= 0 or self.ranks_per_channel <= 0:
            raise ConfigError("channels and ranks_per_channel must be positive")
        for name in (
            "mode_switch_latency", "unit_message_latency", "controller_request_latency",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        if self.cpu_channel_bandwidth <= 0:
            raise ConfigError(
                f"cpu_channel_bandwidth must be positive, got {self.cpu_channel_bandwidth}"
            )

    @property
    def total_ranks(self) -> int:
        """Number of PIM-enabled ranks in the system."""
        return self.channels * self.ranks_per_channel

    @property
    def total_pim_units(self) -> int:
        """Total PIM units across the system."""
        return self.total_ranks * self.pim.units_per_rank

    @property
    def total_pim_bandwidth(self) -> float:
        """Aggregate internal bandwidth of all PIM units, bytes/ns."""
        return self.total_pim_units * self.pim.dram_bandwidth

    @property
    def total_cpu_bandwidth(self) -> float:
        """Aggregate CPU-side memory bandwidth, bytes/ns."""
        return self.channels * self.cpu_channel_bandwidth


@dataclass(frozen=True)
class AreaModel:
    """Area overhead constants recorded from Section 7.6 of the paper.

    These come from the authors' Synopsys DC synthesis (TSMC 90 nm,
    2.4 GHz); we record them rather than re-derive them.
    """

    scheduler_mm2: float = 0.112
    polling_module_mm2: float = 0.003
    memory_controller_mm2: float = 13.0

    @property
    def total_added_mm2(self) -> float:
        """Total added area of the two new modules."""
        return self.scheduler_mm2 + self.polling_module_mm2

    @property
    def overhead_fraction(self) -> float:
        """Added area relative to the whole memory controller."""
        return self.total_added_mm2 / self.memory_controller_mm2


def dimm_system(**overrides) -> SystemConfig:
    """The paper's default DIMM-based PIM system (Table 1)."""
    return replace(SystemConfig(), **overrides) if overrides else SystemConfig()


def hbm_system(**overrides) -> SystemConfig:
    """The HBM-based comparison system (Table 1, HBM block).

    Only the PIM DRAM changes relative to the DIMM system: 32 channels of
    HBM3 with a 64 B interleave granularity (Section 8 discusses why the
    coarser granularity hurts small-column access). PIM units and the CPU
    side stay identical, and the total bank count matches the DIMM system.
    """
    geometry = DeviceGeometry(
        devices_per_rank=8,
        banks_per_device=8,
        rows_per_bank=32_768,
        columns_per_row=64,
        interleave_granularity=64,
        row_buffer_bytes=1024,
    )
    config = SystemConfig(
        name="hbm",
        memory_kind="hbm",
        timings=HBM3_TIMINGS,
        geometry=geometry,
        channels=32,
        ranks_per_channel=1,
        # Keep the total bank (= PIM unit) count equal to the DIMM system
        # (§7.1): 32 channels x 32 banks = 1024 units.
        pim=PIMUnitConfig(units_per_rank=32),
        cpu_channel_bandwidth=gb_per_s(51.2),
    )
    return replace(config, **overrides) if overrides else config


def lpddr5x_system(**overrides) -> SystemConfig:
    """A mobile-class LPDDR5X-PIM system (LP5X-PIM Sim tech note).

    LPDDR5X packages use fewer, wider devices (x16) with more banks per
    device; a 16 B interleave granularity matches the BL32 burst on the
    narrow channel. Fewer channels and a lower per-channel CPU bandwidth
    reflect the mobile memory subsystem. The total bank (= PIM unit)
    count per rank matches the DIMM system: 4 devices x 16 banks = 64.
    """
    geometry = DeviceGeometry(
        devices_per_rank=4,
        banks_per_device=16,
        rows_per_bank=65_536,
        columns_per_row=1024,
        interleave_granularity=16,
        row_buffer_bytes=2048,
    )
    config = SystemConfig(
        name="lpddr5x",
        memory_kind="lpddr5x",
        timings=LPDDR5X_8533_TIMINGS,
        geometry=geometry,
        channels=8,
        ranks_per_channel=2,
        pim=PIMUnitConfig(units_per_rank=64),
        cpu_channel_bandwidth=gb_per_s(17.1),
    )
    return replace(config, **overrides) if overrides else config


#: Named hardware models: name → (config factory, description).
SUBSTRATES: Dict[str, Tuple[Callable[[], SystemConfig], str]] = {
    "ddr5": (dimm_system, "DDR5-3200 DIMM-based PIM server (paper Table 1 default)"),
    "hbm3": (hbm_system, "HBM3-2Gbps comparison system (paper Table 1, HBM block)"),
    "lpddr5x-pim": (lpddr5x_system, "LPDDR5X-8533 mobile PIM stack (LP5X-PIM Sim tech note)"),
}


def substrate_config(name: str) -> SystemConfig:
    """A fresh config of the named substrate; raises ``ConfigError`` if unknown."""
    try:
        factory, _ = SUBSTRATES[name]
    except KeyError:
        known = ", ".join(sorted(SUBSTRATES))
        raise ConfigError(f"unknown substrate {name!r} (known: {known})") from None
    return factory()
