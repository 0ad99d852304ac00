"""Named substrates, config validation, and ceiling properties."""

import json
import pathlib

import pytest
from dataclasses import replace

from repro.bench.roofline import _ceilings
from repro.core.config import (
    SUBSTRATES,
    DeviceGeometry,
    LPDDR5X_8533_TIMINGS,
    SystemConfig,
    dimm_system,
    hbm_system,
    lpddr5x_system,
    substrate_config,
)
from repro.errors import ConfigError
from repro.olap.cost import classify

BASELINE = pathlib.Path(__file__).resolve().parent.parent / "baselines" / "figures.json"


class TestRegistry:
    def test_three_presets_available(self):
        assert set(SUBSTRATES) == {"ddr5", "hbm3", "lpddr5x-pim"}
        assert all(description for _, description in SUBSTRATES.values())

    def test_default_is_ddr5(self):
        # A config built without naming a substrate is the ddr5 one.
        assert substrate_config("ddr5") == SystemConfig()

    def test_ddr5_matches_dimm_system_exactly(self):
        # The refactor must be simulation-neutral: the default substrate
        # IS the paper's DIMM config, field for field.
        assert substrate_config("ddr5") == dimm_system()

    def test_hbm3_matches_hbm_system(self):
        assert substrate_config("hbm3") == hbm_system()

    def test_lpddr5x_uses_lp5x_timings(self):
        config = substrate_config("lpddr5x-pim")
        assert config == lpddr5x_system()
        assert config.timings == LPDDR5X_8533_TIMINGS
        assert config.memory_kind == "lpddr5x"

    def test_unknown_substrate_names_the_known_ones(self):
        with pytest.raises(
            ConfigError,
            match=r"^unknown substrate 'gddr7' \(known: ddr5, hbm3, lpddr5x-pim\)$",
        ):
            substrate_config("gddr7")

    def test_registry_returns_fresh_configs(self):
        # Factories run per lookup so callers can't mutate a shared config.
        assert substrate_config("ddr5") is not substrate_config("ddr5")


class TestCeilings:
    def test_per_unit_ceiling_capped_by_unit_port(self):
        config = substrate_config("ddr5")
        per_unit = _ceilings(config)["stream_bandwidth_per_unit"]
        assert 0 < per_unit <= config.pim.dram_bandwidth

    def test_rank_and_system_scale_from_unit(self):
        config = substrate_config("ddr5")
        ceilings = _ceilings(config)
        per_unit = ceilings["stream_bandwidth_per_unit"]
        assert ceilings["stream_bandwidth_per_rank"] == pytest.approx(
            per_unit * config.pim.units_per_rank
        )
        assert ceilings["stream_bandwidth_system"] == pytest.approx(
            per_unit * config.total_pim_units
        )

    def test_system_ceiling_monotonic_in_channels(self):
        base = dimm_system()
        more = _ceilings(replace(base, channels=base.channels * 2))
        assert more["stream_bandwidth_system"] > _ceilings(base)["stream_bandwidth_system"]

    def test_random_line_floor_positive(self):
        for name in sorted(SUBSTRATES):
            ceilings = _ceilings(substrate_config(name))
            assert ceilings["random_line_ns"] > 0
            assert ceilings["random_line_bandwidth"] > 0
            # Random line traffic never beats streaming at system scale.
            assert ceilings["random_line_bandwidth"] < ceilings["stream_bandwidth_system"]

    def test_control_overhead_covers_switches_and_requests(self):
        cfg = substrate_config("ddr5")
        assert _ceilings(cfg)["control_overhead_ns"] == pytest.approx(
            2 * cfg.mode_switch_latency + 2 * cfg.controller_request_latency
        )

    def test_summary_is_json_ready(self):
        from repro.bench.roofline import run_roofline

        snapshot = run_roofline(["lpddr5x-pim"], sizes=(64,), micro_sizes=(8,))
        summary = snapshot["substrates"]["lpddr5x-pim"]
        assert summary["name"] == "lpddr5x-pim"
        assert summary["description"] == SUBSTRATES["lpddr5x-pim"][1]
        assert len(summary) == 10
        json.dumps(summary)  # no non-serializable values
        assert summary["stream_bandwidth_per_unit"] > 0


class TestClassify:
    def test_memory_bound_when_load_dominates(self):
        assert classify(10.0, 5.0, 1.0) == "memory"

    def test_compute_bound_when_compute_dominates(self):
        assert classify(1.0, 10.0, 5.0) == "compute"

    def test_control_bound_when_control_dominates(self):
        assert classify(1.0, 2.0, 10.0) == "control"

    def test_ties_prefer_memory_then_compute(self):
        assert classify(5.0, 5.0, 5.0) == "memory"
        assert classify(1.0, 5.0, 5.0) == "compute"


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
