"""Two-phase execution (§6.2) over a synthetic chunked operation."""

import pytest

from repro.core.config import DDR5_3200_TIMINGS, DeviceGeometry, PIMUnitConfig, dimm_system
from repro.errors import ProtocolError, QueryError
from repro.pim.controller import OriginalController, PushTapController
from repro.pim.device import Device
from repro.pim.executor import ExecutionResult, TwoPhaseExecutor
from repro.pim.pim_unit import PIMUnit
from repro.pim.requests import LaunchRequest, OpType
from tests.conftest import unit_work


def make_units(n=4):
    device = Device(0, 8 * 4096, num_banks=8)
    cfg = PIMUnitConfig()
    return [
        PIMUnit(i, device.banks[i], cfg, DDR5_3200_TIMINGS, DeviceGeometry())
        for i in range(n)
    ]


class FakeOp:
    """Three phases; per-unit load 100 ns, compute 50 ns."""

    def __init__(self, units, chunks=3, load_ns=100.0, compute_ns=50.0):
        self.units = units
        self.chunks = chunks
        self.load_ns = load_ns
        self.compute_ns = compute_ns
        self.calls = []
        self.work_before = unit_work(units)

    def num_chunks(self):
        return self.chunks

    def participating_units(self):
        return self.units

    def load_request(self, chunk):
        return LaunchRequest(OpType.LS, {"op0_len": 64})

    def compute_request(self, chunk):
        return LaunchRequest(OpType.FILTER, {"data_width": 4})

    def load(self, chunk):
        self.calls.extend(("load", unit.unit_id, chunk) for unit in self.units)
        return [self.load_ns] * len(self.units)

    def compute(self, chunk):
        self.calls.extend(("compute", unit.unit_id, chunk) for unit in self.units)
        return [self.compute_ns] * len(self.units)

    def work(self):
        """The units' counter deltas since the operation was made."""
        return tuple(now - then for now, then in zip(unit_work(self.units), self.work_before))


class TestPhaseAccounting:
    def test_all_phases_run_on_all_units(self):
        units = make_units(4)
        executor = TwoPhaseExecutor(PushTapController(dimm_system(), units))
        op = FakeOp(units)
        result = executor.execute(op)
        assert result.phases == 3
        loads = [c for c in op.calls if c[0] == "load"]
        assert len(loads) == 12  # 4 units x 3 chunks

    def test_wall_time_is_max_not_sum(self):
        units = make_units(4)
        executor = TwoPhaseExecutor(PushTapController(dimm_system(), units))
        result = executor.execute(FakeOp(units, chunks=1))
        assert result.load_time == pytest.approx(100.0)
        assert result.compute_time == pytest.approx(50.0)

    def test_totals_compose(self):
        units = make_units(2)
        executor = TwoPhaseExecutor(PushTapController(dimm_system(), units))
        result = executor.execute(FakeOp(units))
        assert result.total_time == pytest.approx(
            result.load_time + result.compute_time + result.control_time
        )
        assert len(result.traces) == 3

    def test_merge(self):
        a = ExecutionResult(total_time=10, cpu_blocked_time=5, phases=1)
        b = ExecutionResult(total_time=20, cpu_blocked_time=5, phases=2)
        merged = a.merge(b)
        assert merged.total_time == 30
        assert merged.phases == 3


class TestCPUBlocking:
    """The headline §6.2 property: PUSHtap frees the CPU during compute."""

    def test_pushtap_not_blocked_during_compute(self):
        units = make_units(2)
        executor = TwoPhaseExecutor(PushTapController(dimm_system(), units))
        result = executor.execute(FakeOp(units, chunks=1))
        assert result.cpu_blocked_time < result.total_time
        # load yes, compute no
        assert result.cpu_blocked_time >= result.load_time

    def test_original_blocked_throughout(self):
        units = make_units(2)
        executor = TwoPhaseExecutor(OriginalController(dimm_system(), units))
        result = executor.execute(FakeOp(units, chunks=1))
        assert result.cpu_blocked_time == pytest.approx(result.total_time)

    def test_pushtap_blocks_less_than_original(self):
        units = make_units(8)
        op_a = FakeOp(units)
        pushtap = TwoPhaseExecutor(PushTapController(dimm_system(), units)).execute(op_a)
        op_b = FakeOp(units)
        original = TwoPhaseExecutor(OriginalController(dimm_system(), units)).execute(op_b)
        assert pushtap.cpu_blocked_time < original.cpu_blocked_time
        assert pushtap.control_time < original.control_time


class TestOffloadSemantics:
    """§2.1 regressions: one handover per offload on the original
    architecture, banks locked for the offload's entire duration."""

    def test_original_handovers_equal_offloads_not_phases(self):
        units = make_units(4)
        controller = OriginalController(dimm_system(), units)
        executor = TwoPhaseExecutor(controller)
        executor.execute(FakeOp(units, chunks=5))
        assert controller.stats.handovers == 1
        executor.execute(FakeOp(units, chunks=3))
        assert controller.stats.handovers == 2

    def test_original_banks_locked_during_compute_phase(self):
        units = make_units(2)
        controller = OriginalController(dimm_system(), units)
        executor = TwoPhaseExecutor(controller)
        lock_states = []

        class ProbeOp(FakeOp):
            def compute(self, chunk):
                lock_states.extend(unit.bank.locked for unit in self.units)
                return super().compute(chunk)

        executor.execute(ProbeOp(units, chunks=3))
        assert lock_states and all(lock_states)
        # Banks are released once the offload ends.
        assert not any(u.bank.locked for u in units)

    def test_pushtap_banks_free_during_compute_phase(self):
        units = make_units(2)
        executor = TwoPhaseExecutor(PushTapController(dimm_system(), units))
        lock_states = []

        class ProbeOp(FakeOp):
            def compute(self, chunk):
                lock_states.extend(unit.bank.locked for unit in self.units)
                return super().compute(chunk)

        executor.execute(ProbeOp(units, chunks=2))
        assert lock_states and not any(lock_states)

    def test_original_handover_charged_once_in_control_time(self):
        cfg = dimm_system()
        units = make_units(4)
        controller = OriginalController(cfg, units)
        result = TwoPhaseExecutor(controller).execute(FakeOp(units, chunks=4))
        handover = cfg.mode_switch_latency * controller.num_ranks
        msg = len(units) * cfg.unit_message_latency
        # 4 messaging rounds per chunk (launch+poll x 2 phases) + 1 handover.
        assert result.control_time == pytest.approx(4 * 4 * msg + handover)


class TestValidation:
    def test_rejects_empty_units(self):
        executor = TwoPhaseExecutor(PushTapController(dimm_system(), make_units()))
        op = FakeOp([])
        with pytest.raises(QueryError):
            executor.execute(op)

    def test_rejects_non_ls_load(self):
        units = make_units(1)
        executor = TwoPhaseExecutor(PushTapController(dimm_system(), units))

        class BadOp(FakeOp):
            def load_request(self, chunk):
                return LaunchRequest(OpType.FILTER, {})

        with pytest.raises(QueryError):
            executor.execute(BadOp(units))

    def test_rejects_dram_compute(self):
        units = make_units(1)
        executor = TwoPhaseExecutor(PushTapController(dimm_system(), units))

        class BadOp(FakeOp):
            def compute_request(self, chunk):
                return LaunchRequest(OpType.LS, {})

        with pytest.raises(QueryError):
            executor.execute(BadOp(units))

    def test_control_fraction(self):
        result = ExecutionResult(total_time=100.0, control_time=25.0)
        assert result.control_fraction == 0.25
        assert ExecutionResult().control_fraction == 0.0


class TestFailedPhase:
    """A phase that raises leaves the controller as an offload's end does:
    the original error surfaces and the next operation runs."""

    @pytest.mark.parametrize("controller_cls", [PushTapController, OriginalController])
    @pytest.mark.parametrize("phase", ["load", "compute"])
    def test_raising_phase_finishes_and_ends_the_offload(self, controller_cls, phase):
        units = make_units(4)
        controller = controller_cls(dimm_system(), units)
        executor = TwoPhaseExecutor(controller)

        class Failing(FakeOp):
            def load(self, chunk):
                if phase == "load" and chunk == 1:
                    raise ProtocolError("load failed")
                return super().load(chunk)

            def compute(self, chunk):
                if phase == "compute" and chunk == 1:
                    raise ProtocolError("compute failed")
                return super().compute(chunk)

        with pytest.raises(ProtocolError, match=f"{phase} failed"):
            executor.execute(Failing(units))
        assert getattr(controller, "pending", None) is None
        assert not getattr(controller, "_offload_active", False)
        assert not any(unit.bank.locked for unit in units)
        assert executor.execute(FakeOp(units)).phases == 3

    @pytest.mark.parametrize("kind", ["pushtap", "original"])
    def test_group_overflow_does_not_wedge_the_engine(self, kind):
        """ORDERLINE's item ids overflow a block's 256-key dictionary at
        1e-4: the group scan raises that, the invariants hold afterwards,
        and the next Q6 answers as on an engine that never failed."""
        from repro.core.engine import PushTapEngine
        from repro.faults.invariants import InvariantChecker
        from repro.olap.engine import QueryTiming

        engine, clean = (
            PushTapEngine.build(scale=1e-4, seed=7, defrag_period=0, controller_kind=kind)
            for _ in range(2)
        )
        with pytest.raises(ProtocolError, match=r"group dictionary overflow: \d+ keys > 256"):
            engine.olap.group(engine.table("orderline"), "ol_i_id", QueryTiming())
        assert InvariantChecker(engine).check() == []
        assert engine.query("Q6").rows == clean.query("Q6").rows
        assert InvariantChecker(engine).check() == []
