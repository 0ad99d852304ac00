"""Memory controller models: original vs PUSHtap (§6.1)."""

import pytest

from repro.core.config import DDR5_3200_TIMINGS, DeviceGeometry, PIMUnitConfig, dimm_system
from repro.errors import ProtocolError
from repro.pim.controller import (
    OriginalController,
    PushTapController,
    SPECIAL_ADDRESS,
)
from repro.pim.device import Device
from repro.pim.pim_unit import PIMUnit
from repro.pim.requests import LaunchRequest, OpType


def make_units(n=4):
    device = Device(0, 8 * 4096, num_banks=8)
    cfg = PIMUnitConfig()
    return [
        PIMUnit(i, device.banks[i], cfg, DDR5_3200_TIMINGS, DeviceGeometry())
        for i in range(n)
    ]


LS = LaunchRequest(OpType.LS, {"op0_len": 64})
FILTER = LaunchRequest(OpType.FILTER, {"data_width": 4})


class TestOriginalController:
    def test_launch_messages_every_unit(self):
        cfg = dimm_system()
        ctrl = OriginalController(cfg, make_units(4))
        cost = ctrl.launch(FILTER)
        assert cost.cpu_time == pytest.approx(4 * cfg.unit_message_latency)
        assert cost.handover_time > 0

    def test_banks_locked_even_for_compute(self):
        ctrl = OriginalController(dimm_system(), make_units())
        ctrl.launch(FILTER)
        assert all(u.bank.locked for u in ctrl.units)
        assert ctrl.locks_banks_during_compute

    def test_poll_messages_every_unit(self):
        cfg = dimm_system()
        ctrl = OriginalController(cfg, make_units(4))
        cost = ctrl.poll()
        assert cost.cpu_time == pytest.approx(4 * cfg.unit_message_latency)

    def test_banks_stay_locked_across_phases(self):
        """§2.1 regression: finish() between phases must NOT unlock —
        the original architecture holds the banks for the whole offload."""
        ctrl = OriginalController(dimm_system(), make_units())
        ctrl.begin_offload()
        ctrl.launch(LS)
        ctrl.finish(LS)
        assert all(u.bank.locked for u in ctrl.units)
        ctrl.launch(FILTER)
        ctrl.finish(FILTER)
        assert all(u.bank.locked for u in ctrl.units)
        ctrl.end_offload()
        assert not any(u.bank.locked for u in ctrl.units)

    def test_handover_charged_once_per_offload(self):
        """Regression: the mode switch is paid once per offload, not per
        phase launch, and stats.handovers counts offloads."""
        cfg = dimm_system()
        ctrl = OriginalController(cfg, make_units(4))
        begin = ctrl.begin_offload()
        assert begin.handover_time == pytest.approx(
            cfg.mode_switch_latency * ctrl.num_ranks
        )
        for _ in range(3):
            assert ctrl.launch(LS).handover_time == 0.0
            ctrl.finish(LS)
            assert ctrl.launch(FILTER).handover_time == 0.0
            ctrl.finish(FILTER)
        ctrl.end_offload()
        assert ctrl.stats.handovers == 1
        assert ctrl.stats.launches == 6

    def test_bare_launch_opens_offload(self):
        """A launch outside an explicit offload still pays one handover."""
        ctrl = OriginalController(dimm_system(), make_units())
        cost = ctrl.launch(FILTER)
        assert cost.handover_time > 0
        assert all(u.bank.locked for u in ctrl.units)
        assert ctrl.launch(FILTER).handover_time == 0.0
        assert ctrl.stats.handovers == 1

    def test_end_offload_without_begin_is_noop(self):
        ctrl = OriginalController(dimm_system(), make_units())
        cost = ctrl.end_offload()
        assert cost.total == 0.0
        assert ctrl.stats.handovers == 0


class TestPushTapController:
    @pytest.mark.parametrize("substrate, ranks", [("ddr5", 1), ("hbm3", 2), ("lpddr5x-pim", 1)])
    def test_an_engine_hands_over_its_units_ranks(self, substrate, ranks):
        """An engine's 64 units (one rank of devices × banks) span two of
        hbm3's 32-unit PIM ranks, so its handover is charged twice there."""
        from repro.core.config import SUBSTRATES
        from repro.core.engine import PushTapEngine

        config = SUBSTRATES[substrate][0]()
        controller = PushTapEngine.build(config=config, scale=2e-5).controller
        assert (controller.num_units, controller.num_ranks) == (64, ranks)
        assert controller.begin_mode_batch().handover_time == ranks * config.mode_switch_latency

    def test_launch_is_single_request(self):
        cfg = dimm_system()
        ctrl = PushTapController(cfg, make_units(4))
        cost = ctrl.launch(FILTER)
        assert cost.cpu_time == cfg.controller_request_latency
        ctrl.finish(FILTER)

    def test_compute_leaves_banks_unlocked(self):
        """§6.1: only LS/Defragment hand over bank control."""
        ctrl = PushTapController(dimm_system(), make_units())
        ctrl.launch(FILTER)
        assert not any(u.bank.locked for u in ctrl.units)
        assert not ctrl.locks_banks_during_compute
        ctrl.finish(FILTER)

    def test_ls_locks_banks(self):
        ctrl = PushTapController(dimm_system(), make_units())
        cost = ctrl.launch(LS)
        assert cost.handover_time > 0
        assert all(u.bank.locked for u in ctrl.units)
        ctrl.finish(LS)
        assert not any(u.bank.locked for u in ctrl.units)

    def test_cheaper_than_original(self):
        cfg = dimm_system()
        units = make_units(8)
        original = OriginalController(cfg, units).launch(FILTER).total
        pushtap = PushTapController(cfg, units).launch(FILTER).total
        assert pushtap < original

    def test_pending_protocol(self):
        ctrl = PushTapController(dimm_system(), make_units())
        ctrl.launch(FILTER)
        assert ctrl.pending is not None
        with pytest.raises(ProtocolError):
            ctrl.launch(FILTER)
        with pytest.raises(ProtocolError):
            ctrl.finish(LS)
        ctrl.finish(FILTER)
        assert ctrl.pending is None

    def test_finish_rejects_same_op_different_request(self):
        """Regression: finishing a *different* request of the same op
        type must raise, not silently succeed."""
        ctrl = PushTapController(dimm_system(), make_units())
        ctrl.launch(FILTER)
        other = LaunchRequest(OpType.FILTER, {"data_width": 8})
        with pytest.raises(ProtocolError):
            ctrl.finish(other)
        # The pending operation is untouched and still completable.
        assert ctrl.pending is not None
        ctrl.finish(FILTER)
        assert ctrl.pending is None

    def test_finish_accepts_decoded_equivalent(self):
        """A request decoded from the wire (all fields explicit) matches
        the literal it was encoded from."""
        from repro.pim.requests import decode_launch

        ctrl = PushTapController(dimm_system(), make_units())
        ctrl.launch(FILTER)
        ctrl.finish(decode_launch(FILTER.encode()))
        assert ctrl.pending is None

    def test_stats(self):
        ctrl = PushTapController(dimm_system(), make_units())
        ctrl.launch(LS)
        ctrl.finish(LS)
        ctrl.poll()
        assert ctrl.stats.launches == 1
        assert ctrl.stats.polls == 1
        assert ctrl.stats.handovers == 1
        assert ctrl.stats.control_time > 0


class TestDisguisedMemoryAccess:
    """Launch/poll ride ordinary reads/writes to the special address."""

    def test_write_to_special_address_launches(self):
        ctrl = PushTapController(dimm_system(), make_units())
        cost = ctrl.memory_write(SPECIAL_ADDRESS, FILTER.encode())
        assert cost is not None
        assert ctrl.pending.op == OpType.FILTER

    def test_normal_write_passes_through(self):
        ctrl = PushTapController(dimm_system(), make_units())
        assert ctrl.memory_write(0x1000, b"x" * 64) is None

    def test_read_of_special_address_polls(self):
        ctrl = PushTapController(dimm_system(), make_units())
        assert ctrl.memory_read(SPECIAL_ADDRESS) is not None
        assert ctrl.memory_read(0x2000) is None
        assert ctrl.stats.polls == 1

    def test_malformed_payload_rejected(self):
        ctrl = PushTapController(dimm_system(), make_units())
        with pytest.raises(ProtocolError):
            ctrl.memory_write(SPECIAL_ADDRESS, b"short")
