"""DRAM timing model."""

import pytest
from hypothesis import given, strategies as st

from repro.core.config import (
    DDR5_3200_TIMINGS,
    DeviceGeometry,
    HBM3_TIMINGS,
    substrate_config,
)
from repro.pim.timing import effective_stream_bandwidth, random_line_time, stream_time

GEOM = DeviceGeometry()


class TestStreamTime:
    def test_zero_bytes_is_free(self):
        assert stream_time(0, DDR5_3200_TIMINGS, GEOM) == 0.0

    @given(st.integers(min_value=1, max_value=1 << 20), st.integers(min_value=1, max_value=1 << 20))
    def test_monotone_in_bytes(self, a, b):
        small, large = sorted((a, b))
        assert stream_time(small, DDR5_3200_TIMINGS, GEOM) <= stream_time(
            large, DDR5_3200_TIMINGS, GEOM
        )

    def test_sub_granule_costs_full_burst(self):
        one = stream_time(1, DDR5_3200_TIMINGS, GEOM)
        eight = stream_time(8, DDR5_3200_TIMINGS, GEOM)
        assert one == eight

    def test_row_activation_amortizes(self):
        """Per-byte cost drops as the stream grows past one row buffer."""
        short = stream_time(64, DDR5_3200_TIMINGS, GEOM) / 64
        long = stream_time(64 * KB, DDR5_3200_TIMINGS, GEOM) / (64 * KB)
        assert long < short

    def test_hbm_streams_faster(self):
        dimm = stream_time(1 << 16, DDR5_3200_TIMINGS, GEOM)
        hbm = stream_time(1 << 16, HBM3_TIMINGS, GEOM)
        assert hbm < dimm


KB = 1024


class TestRandomLineTime:
    def test_zero_lines(self):
        assert random_line_time(0, DDR5_3200_TIMINGS) == 0.0

    def test_linear_in_lines(self):
        one = random_line_time(1, DDR5_3200_TIMINGS)
        ten = random_line_time(10, DDR5_3200_TIMINGS)
        assert ten == pytest.approx(10 * one)

    def test_hits_are_cheaper(self):
        cold = random_line_time(100, DDR5_3200_TIMINGS, hit_rate=0.0)
        warm = random_line_time(100, DDR5_3200_TIMINGS, hit_rate=0.9)
        assert warm < cold

    @pytest.mark.parametrize(
        "substrate, shadow_ratio, all_hit_ratio",
        [("ddr5", 0.684, 0.400), ("hbm3", 0.705, 0.440), ("lpddr5x-pim", 0.666, 0.366)],
    )
    def test_conflict_charge_bound(self, substrate, shadow_ratio, all_hit_ratio):
        """DESIGN.md §4's bound on the conflict-priced OLTP line: the price
        of a line at 52.7 % row hits, and of one that always hits, over the
        conflict price the engine charges."""
        timings = substrate_config(substrate).timings
        conflict = random_line_time(1, timings)
        assert random_line_time(1, timings, hit_rate=0.527) / conflict == pytest.approx(
            shadow_ratio, abs=5e-4
        )
        assert random_line_time(1, timings, hit_rate=1.0) / conflict == pytest.approx(
            all_hit_ratio, abs=5e-4
        )


class TestEffectiveStreamBandwidth:
    def test_positive_and_bounded(self):
        bw = effective_stream_bandwidth(DDR5_3200_TIMINGS, GEOM)
        # One 8 B burst per tBURST is the hard ceiling.
        assert 0 < bw <= 8 / DDR5_3200_TIMINGS.tBURST


class TestTimingEdgeCases:
    """Roofline PR: sensitivity of the closed-form timing model."""

    def test_finer_granularity_never_faster(self):
        coarse = stream_time(1 << 12, DDR5_3200_TIMINGS, GEOM, access_granularity=8)
        fine = stream_time(1 << 12, DDR5_3200_TIMINGS, GEOM, access_granularity=1)
        assert fine >= coarse

    def test_refresh_dominated_part_streams_slower(self):
        from dataclasses import replace

        hungry = replace(DDR5_3200_TIMINGS, tRFC=DDR5_3200_TIMINGS.tREFI * 0.5)
        assert effective_stream_bandwidth(hungry, GEOM) < effective_stream_bandwidth(
            DDR5_3200_TIMINGS, GEOM
        )
        assert random_line_time(64, hungry) > random_line_time(64, DDR5_3200_TIMINGS)

    def test_bigger_row_buffer_never_hurts_bandwidth(self):
        from dataclasses import replace

        small = replace(GEOM, row_buffer_bytes=GEOM.row_buffer_bytes // 2)
        big = replace(GEOM, row_buffer_bytes=GEOM.row_buffer_bytes * 2)
        assert effective_stream_bandwidth(
            DDR5_3200_TIMINGS, big
        ) >= effective_stream_bandwidth(DDR5_3200_TIMINGS, small)

    def test_all_hit_random_line_matches_hit_latency(self):
        expected = (
            100
            * DDR5_3200_TIMINGS.row_hit_read_latency()
            * (1.0 + DDR5_3200_TIMINGS.refresh_utilization_penalty())
        )
        assert random_line_time(100, DDR5_3200_TIMINGS, hit_rate=1.0) == pytest.approx(
            expected
        )

    def test_stream_bandwidth_invariant_to_probe_scale(self):
        # Bandwidth is measured on a probe large enough to amortize
        # activations; doubling the probe barely moves the answer.
        probe = GEOM.row_buffer_bytes * 16
        direct = probe / stream_time(probe, DDR5_3200_TIMINGS, GEOM)
        double = (2 * probe) / stream_time(2 * probe, DDR5_3200_TIMINGS, GEOM)
        assert direct == pytest.approx(double, rel=0.01)
