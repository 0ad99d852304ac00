"""Substrate registry, config validation, and ceiling properties."""

import json
import pathlib

import pytest
from dataclasses import replace

from repro.core.config import (
    DeviceGeometry,
    LPDDR5X_8533_TIMINGS,
    dimm_system,
    hbm_system,
    lpddr5x_system,
)
from repro.errors import ConfigError
from repro.pim.substrate import (
    DEFAULT_SUBSTRATE,
    Substrate,
    available_substrates,
    get_substrate,
    register_substrate,
)

BASELINE = pathlib.Path(__file__).resolve().parent.parent / "baselines" / "figures.json"


class TestRegistry:
    def test_three_presets_available(self):
        names = available_substrates()
        assert {"ddr5", "hbm3", "lpddr5x-pim"} <= set(names)
        assert names == sorted(names)

    def test_default_is_ddr5(self):
        assert DEFAULT_SUBSTRATE == "ddr5"
        assert get_substrate().name == "ddr5"

    def test_ddr5_matches_dimm_system_exactly(self):
        # The refactor must be simulation-neutral: the default substrate
        # IS the paper's DIMM config, field for field.
        assert get_substrate("ddr5").config == dimm_system()

    def test_hbm3_matches_hbm_system(self):
        assert get_substrate("hbm3").config == hbm_system()

    def test_lpddr5x_uses_lp5x_timings(self):
        config = get_substrate("lpddr5x-pim").config
        assert config == lpddr5x_system()
        assert config.timings == LPDDR5X_8533_TIMINGS
        assert config.memory_kind == "lpddr5x"

    def test_unknown_substrate_names_the_known_ones(self):
        with pytest.raises(ConfigError, match="unknown substrate.*known.*ddr5"):
            get_substrate("gddr7")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_substrate("ddr5", dimm_system)

    def test_registry_returns_fresh_configs(self):
        # Factories run per lookup so callers can't mutate a shared config.
        assert get_substrate("ddr5").config is not get_substrate("ddr5").config


class TestCeilings:
    def test_per_unit_ceiling_capped_by_unit_port(self):
        sub = get_substrate("ddr5")
        assert sub.stream_bandwidth_per_unit <= sub.config.pim.dram_bandwidth
        assert sub.stream_bandwidth_per_unit > 0

    def test_rank_and_system_scale_from_unit(self):
        sub = get_substrate("ddr5")
        per_unit = sub.stream_bandwidth_per_unit
        assert sub.stream_bandwidth_per_rank == pytest.approx(
            per_unit * sub.config.pim.units_per_rank
        )
        assert sub.stream_bandwidth_system == pytest.approx(
            per_unit * sub.config.total_pim_units
        )

    def test_system_ceiling_monotonic_in_channels(self):
        base = dimm_system()
        more = Substrate("x", replace(base, channels=base.channels * 2))
        assert more.stream_bandwidth_system > Substrate("y", base).stream_bandwidth_system

    def test_random_line_floor_positive(self):
        for name in available_substrates():
            sub = get_substrate(name)
            assert sub.random_line_ns > 0
            assert sub.random_line_bandwidth > 0
            # Random line traffic never beats streaming at system scale.
            assert sub.random_line_bandwidth < sub.stream_bandwidth_system

    def test_control_overhead_covers_switches_and_requests(self):
        sub = get_substrate("ddr5")
        cfg = sub.config
        assert sub.control_overhead_ns == pytest.approx(
            2 * cfg.mode_switch_latency + 2 * cfg.controller_request_latency
        )

    def test_summary_is_json_ready(self):
        summary = get_substrate("lpddr5x-pim").summary()
        assert summary["name"] == "lpddr5x-pim"
        json.dumps(summary)  # no non-serializable values
        assert summary["stream_bandwidth_per_unit"] > 0


class TestClassify:
    def test_memory_bound_when_load_dominates(self):
        assert Substrate.classify(10.0, 5.0, 1.0) == "memory"

    def test_compute_bound_when_compute_dominates(self):
        assert Substrate.classify(1.0, 10.0, 5.0) == "compute"

    def test_control_bound_when_control_dominates(self):
        assert Substrate.classify(1.0, 2.0, 10.0) == "control"

    def test_ties_prefer_memory_then_compute(self):
        assert Substrate.classify(5.0, 5.0, 5.0) == "memory"
        assert Substrate.classify(1.0, 5.0, 5.0) == "compute"


class TestTimingValidation:
    def test_negative_timing_rejected(self):
        with pytest.raises(ConfigError, match="tRCD must be non-negative"):
            replace(LPDDR5X_8533_TIMINGS, tRCD=-1.0)

    def test_zero_burst_rejected(self):
        with pytest.raises(ConfigError, match="tBURST"):
            replace(LPDDR5X_8533_TIMINGS, tBURST=0.0)

    def test_zero_refresh_interval_rejected(self):
        with pytest.raises(ConfigError, match="tREFI"):
            replace(LPDDR5X_8533_TIMINGS, tREFI=0.0)

    def test_valid_timings_accepted(self):
        assert LPDDR5X_8533_TIMINGS.tBURST > 0


class TestGeometryValidation:
    def test_zero_counts_rejected(self):
        with pytest.raises(ConfigError):
            DeviceGeometry(devices_per_rank=0)
        with pytest.raises(ConfigError):
            DeviceGeometry(banks_per_device=0)
        with pytest.raises(ConfigError):
            DeviceGeometry(rows_per_bank=0)

    def test_non_power_of_two_interleave_rejected(self):
        with pytest.raises(ConfigError, match="interleave_granularity"):
            DeviceGeometry(interleave_granularity=24)

    def test_non_power_of_two_row_buffer_rejected(self):
        with pytest.raises(ConfigError, match="row_buffer_bytes"):
            DeviceGeometry(row_buffer_bytes=3000)


class TestFigureBitIdentity:
    def test_fig8a_bit_identical_on_default_substrate(self):
        """The substrate refactor must not move a bit of Fig. 8a."""
        from dataclasses import asdict

        from repro.experiments import fig8

        baseline = json.loads(BASELINE.read_text())["ddr5"]["fig8a"]
        assert [asdict(p) for p in fig8.th_sweep()] == baseline
