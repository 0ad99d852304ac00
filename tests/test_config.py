"""System configuration — Table 1 values and derived quantities."""

import pytest

from repro.core.config import (
    AreaModel,
    CPUConfig,
    DDR5_3200_TIMINGS,
    DeviceGeometry,
    HBM3_TIMINGS,
    PIMUnitConfig,
    SystemConfig,
    dimm_system,
    hbm_system,
)
from repro.errors import ConfigError
from repro.units import KIB


class TestTable1Values:
    """The paper's Table 1, asserted verbatim."""

    def test_ddr5_timings(self):
        t = DDR5_3200_TIMINGS
        assert (t.tBURST, t.tRCD, t.tCL, t.tRP) == (2.5, 7.5, 7.5, 7.5)
        assert (t.tRAS, t.tRRD, t.tRFC, t.tWR) == (16.3, 2.5, 121.9, 15.0)
        assert (t.tWTR, t.tRTP, t.tRTW, t.tCS) == (11.2, 3.75, 4.4, 4.4)
        assert t.tREFI == 3_900.0

    def test_hbm3_timings(self):
        t = HBM3_TIMINGS
        assert (t.tBURST, t.tRCD, t.tCL, t.tRP) == (2.0, 3.5, 3.5, 3.5)
        assert (t.tRFC, t.tREFI) == (175.0, 2_000.0)

    def test_dimm_geometry(self):
        g = dimm_system().geometry
        assert g.devices_per_rank == 8
        assert g.banks_per_device == 8
        assert g.rows_per_bank == 131_072
        assert g.columns_per_row == 1024
        assert g.interleave_granularity == 8

    def test_pim_unit(self):
        p = dimm_system().pim
        assert p.frequency_mhz == 500.0
        assert p.tasklets == 16
        assert p.dram_bandwidth == 1.0  # 1 GB/s == 1 B/ns
        assert p.wram_bytes == 64 * KIB
        assert p.wire_width_bits == 64
        assert p.units_per_rank == 64

    def test_host_cpu(self):
        c = dimm_system().cpu
        assert c.cores == 16
        assert c.frequency_ghz == 3.2
        assert c.cache_line_bytes == 64

    def test_system_scale(self):
        s = dimm_system()
        assert s.total_ranks == 16
        assert s.total_pim_units == 1024
        assert s.mode_switch_latency == 200.0  # 0.2 us per rank


class TestDerivedQuantities:
    def test_latency_ordering(self):
        t = DDR5_3200_TIMINGS
        assert t.row_hit_read_latency() < t.row_conflict_read_latency()

    def test_refresh_penalty_small(self):
        assert 0 < DDR5_3200_TIMINGS.refresh_utilization_penalty() < 0.1

    def test_cache_line_spans_rank(self):
        g = DeviceGeometry()
        assert g.cache_line_bytes == 64

    def test_pim_cycle_and_buffers(self):
        p = PIMUnitConfig()
        assert p.cycle_ns == 2.0
        assert p.load_buffer_bytes == 32 * KIB
        assert p.access_granularity == 8

    def test_total_bandwidths(self):
        s = dimm_system()
        assert s.total_pim_bandwidth == 1024.0
        assert s.total_cpu_bandwidth == pytest.approx(4 * 25.6)


class TestHBMSystem:
    def test_hbm_basics(self):
        h = hbm_system()
        assert h.memory_kind == "hbm"
        assert h.channels == 32
        assert h.geometry.interleave_granularity == 64

    def test_hbm_keeps_bank_count(self):
        """§7.1: the HBM system has the same bank (unit) count."""
        assert hbm_system().total_pim_units == dimm_system().total_pim_units

    def test_hbm_overrides(self):
        h = hbm_system(mode_switch_latency=100.0)
        assert h.mode_switch_latency == 100.0


class TestValidationAndUtilities:
    def test_rejects_bad_memory_kind(self):
        with pytest.raises(ConfigError):
            SystemConfig(memory_kind="optane")

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            DeviceGeometry(devices_per_rank=0)
        with pytest.raises(ConfigError):
            DeviceGeometry(interleave_granularity=0)

    def test_rejects_bad_pim(self):
        with pytest.raises(ConfigError):
            PIMUnitConfig(wram_bytes=0)
        with pytest.raises(ConfigError):
            PIMUnitConfig(tasklets=0)

    @pytest.mark.parametrize("value", [0, -500.0])
    def test_rejects_non_positive_frequency(self, value):
        with pytest.raises(ConfigError, match="frequency_mhz"):
            PIMUnitConfig(frequency_mhz=value)

    @pytest.mark.parametrize("value", [0, -1.0])
    def test_rejects_non_positive_dram_bandwidth(self, value):
        with pytest.raises(ConfigError, match="dram_bandwidth"):
            PIMUnitConfig(dram_bandwidth=value)

    def test_rejects_bad_channels(self):
        with pytest.raises(ConfigError):
            SystemConfig(channels=0)

    @pytest.mark.parametrize("field, value", [
        ("mode_switch_latency", -5.0),
        ("unit_message_latency", -1.0),
        ("controller_request_latency", -0.1),
        ("cpu_channel_bandwidth", 0),
        ("cpu_channel_bandwidth", -25.6),
    ])
    def test_system_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            dimm_system(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("units_per_rank", 0),
        ("units_per_rank", -64),
        ("wire_width_bits", 0),
        ("wire_width_bits", 12),
        ("wire_width_bits", -64),
    ])
    def test_pim_unit_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            PIMUnitConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("cores", 0),
        ("cores", -16),
        ("frequency_ghz", 0),
        ("frequency_ghz", -3.2),
    ])
    def test_cpu_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            CPUConfig(**{field: value})


class TestAreaModel:
    """§7.6 constants recorded from the paper."""

    def test_values(self):
        a = AreaModel()
        assert a.scheduler_mm2 == 0.112
        assert a.polling_module_mm2 == 0.003
        assert a.total_added_mm2 == pytest.approx(0.115)

    def test_overhead_negligible(self):
        assert AreaModel().overhead_fraction < 0.01
