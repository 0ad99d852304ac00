"""Fault-injection harness: plans, hooks, retries, invariants, sweep."""

import functools
import json

import pytest

from repro.core.config import DDR5_3200_TIMINGS, DeviceGeometry, PIMUnitConfig, dimm_system
from repro.errors import ConfigError, InvariantViolation, QueryError
from repro.faults import injector as faults
from repro.faults import plan as fault_plan
from repro.faults.injector import FaultInjector, NoopInjector
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import HOOKS, FaultPlan, FaultRates
from repro.faults import sweep
from repro.faults.sweep import run_fault_sweep
from repro.mvcc.metadata import Region
from repro.pim.controller import OriginalController, PushTapController
from repro.pim.device import Device
from repro.pim.executor import (
    MAX_FAULT_RETRIES,
    RETRY_BACKOFF_BASE_NS,
    TwoPhaseExecutor,
)
from repro.pim.pim_unit import PIMUnit
from repro.pim.requests import LaunchRequest, OpType

from tests.conftest import ENGINE_KWARGS, unit_work


@pytest.fixture(autouse=True)
def _clean_injector():
    """Every test starts and ends with the no-op injector installed."""
    faults.deactivate()
    yield
    faults.deactivate()


def make_units(n=4):
    device = Device(0, 8 * 4096, num_banks=8)
    cfg = PIMUnitConfig()
    return [
        PIMUnit(i, device.banks[i], cfg, DDR5_3200_TIMINGS, DeviceGeometry())
        for i in range(n)
    ]


class FakeOp:
    """Two phases; per-unit load 100 ns, compute 50 ns."""

    def __init__(self, units, chunks=2):
        self.units = units
        self.chunks = chunks
        self.compute_calls = 0
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
        return [100.0] * len(self.units)

    def compute(self, chunk):
        self.compute_calls += len(self.units)
        return [50.0] * len(self.units)

    def work(self):
        """The units' counter deltas since the operation was made."""
        return tuple(now - then for now, then in zip(unit_work(self.units), self.work_before))


def install_plan(seed=7, **rates):
    injector = FaultInjector(FaultPlan(seed, FaultRates(rates)))
    faults.install(injector)
    return injector


class TestFaultRates:
    def test_unknown_hook_rejected(self):
        with pytest.raises(ConfigError):
            FaultRates({"no_such_hook": 0.5})

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(ConfigError):
            FaultRates({fault_plan.DROP_LAUNCH: 1.5})

    def test_parse_round_trip(self):
        rates = FaultRates.parse("drop_launch=0.05, forced_abort=0.1")
        assert rates.rate(fault_plan.DROP_LAUNCH) == pytest.approx(0.05)
        assert rates.rate(fault_plan.FORCED_ABORT) == pytest.approx(0.1)
        assert rates.active_hooks == (fault_plan.DROP_LAUNCH, fault_plan.FORCED_ABORT)

    def test_parse_rejects_malformed(self):
        with pytest.raises(ConfigError):
            FaultRates.parse("drop_launch")
        with pytest.raises(ConfigError):
            FaultRates.parse("drop_launch=high")


class TestFaultPlanDeterminism:
    def test_same_seed_same_schedule(self):
        rates = FaultRates({h: 0.3 for h in HOOKS})
        a = FaultPlan(42, rates)
        b = FaultPlan(42, rates)
        for _ in range(200):
            for hook in HOOKS:
                assert a.draw(hook) == b.draw(hook)
        assert a.schedule == b.schedule
        assert a.schedule  # 0.3 over 200 draws fires with certainty

    def test_different_seeds_differ(self):
        rates = FaultRates({fault_plan.DROP_LAUNCH: 0.5})
        a = FaultPlan(1, rates)
        b = FaultPlan(2, rates)
        draws_a = [a.draw(fault_plan.DROP_LAUNCH) for _ in range(64)]
        draws_b = [b.draw(fault_plan.DROP_LAUNCH) for _ in range(64)]
        assert draws_a != draws_b

    def test_zero_rate_consumes_no_randomness(self):
        """Enabling one hook must not perturb another hook's schedule."""
        only = FaultPlan(9, FaultRates({fault_plan.FORCED_ABORT: 0.4}))
        both = FaultPlan(
            9,
            FaultRates(
                {fault_plan.FORCED_ABORT: 0.4, fault_plan.DROP_LAUNCH: 0.0}
            ),
        )
        for _ in range(100):
            assert both.draw(fault_plan.DROP_LAUNCH) is False
            assert only.draw(fault_plan.FORCED_ABORT) == both.draw(
                fault_plan.FORCED_ABORT
            )
        assert both.schedule == only.schedule
        # The zero-rate hook's stream is untouched: its next value is a
        # fresh plan's first.
        fresh = FaultPlan(9)
        assert both.draw_int(fault_plan.DROP_LAUNCH, 0, 2**30) == fresh.draw_int(
            fault_plan.DROP_LAUNCH, 0, 2**30
        )

    def test_unknown_hook_draw_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(1).draw("bogus")


class TestInjectorAccounting:
    def test_noop_is_default(self):
        assert isinstance(faults.active(), NoopInjector)
        assert faults.active().fire(fault_plan.DROP_LAUNCH) is False

    def test_counts_and_pending_checks(self):
        injector = install_plan(seed=3, drop_launch=1.0)
        assert injector.fire(fault_plan.DROP_LAUNCH) is True
        assert injector.fire(fault_plan.DROP_LAUNCH) is True
        assert injector.injected[fault_plan.DROP_LAUNCH] == 2
        injector.detect(fault_plan.DROP_LAUNCH)
        assert injector.detected[fault_plan.DROP_LAUNCH] == 1
        assert injector.take_pending_checks() == 2
        assert injector.take_pending_checks() == 0

    def test_install_and_deactivate(self):
        injector = install_plan(seed=3)
        assert faults.active() is injector
        faults.deactivate()
        assert isinstance(faults.active(), NoopInjector)


class TestControllerFaults:
    def test_pushtap_dropped_launch_not_armed(self):
        install_plan(drop_launch=1.0)
        controller = PushTapController(dimm_system(), make_units())
        request = LaunchRequest(OpType.FILTER, {"data_width": 4})
        controller.launch(request)
        assert controller.last_launch_accepted is False
        assert controller.last_launch_fault == fault_plan.DROP_LAUNCH
        assert controller.pending is None

    def test_pushtap_garbled_launch_detected_by_decoder(self):
        injector = install_plan(garble_launch=1.0)
        controller = PushTapController(dimm_system(), make_units())
        controller.launch(LaunchRequest(OpType.FILTER, {"data_width": 4}))
        assert controller.last_launch_fault == fault_plan.GARBLE_LAUNCH
        assert injector.detected[fault_plan.GARBLE_LAUNCH] == 1

    def test_duplicate_launch_costs_one_extra_message(self):
        units = make_units()
        clean = PushTapController(dimm_system(), units)
        baseline = clean.launch(LaunchRequest(OpType.FILTER, {"data_width": 4}))
        install_plan(duplicate_launch=1.0)
        dup = PushTapController(dimm_system(), units)
        cost = dup.launch(LaunchRequest(OpType.FILTER, {"data_width": 4}))
        extra = dimm_system().controller_request_latency
        assert cost.cpu_time == pytest.approx(baseline.cpu_time + extra)
        assert dup.pending is not None  # armed exactly once

    def test_original_controller_dropped_launch(self):
        install_plan(drop_launch=1.0)
        controller = OriginalController(dimm_system(), make_units())
        controller.launch(LaunchRequest(OpType.FILTER, {"data_width": 4}))
        assert controller.last_launch_accepted is False

    def test_poll_not_done_reports_extra_not_done(self):
        install_plan(poll_not_done=1.0)
        controller = PushTapController(dimm_system(), make_units())
        controller.poll()
        assert controller.last_poll_done is False


class TestExecutorRetries:
    def test_clean_run_unchanged(self):
        units = make_units()
        executor = TwoPhaseExecutor(PushTapController(dimm_system(), units))
        result = executor.execute(FakeOp(units))
        assert result.phases == 2

    def test_retry_backoff_charged_to_control_time(self):
        units = make_units()
        clean = TwoPhaseExecutor(PushTapController(dimm_system(), units)).execute(
            FakeOp(units, chunks=1)
        )
        injector = install_plan(seed=5, drop_launch=0.6)
        faulted = TwoPhaseExecutor(PushTapController(dimm_system(), units)).execute(
            FakeOp(units, chunks=1)
        )
        assert injector.retries > 0
        assert faulted.control_time > clean.control_time
        # The smallest possible overhead of one retry: the base backoff
        # plus the re-issued request.
        assert faulted.control_time - clean.control_time >= RETRY_BACKOFF_BASE_NS

    def test_retry_exhaustion_raises_query_error(self):
        units = make_units()
        install_plan(drop_launch=1.0)
        executor = TwoPhaseExecutor(PushTapController(dimm_system(), units))
        with pytest.raises(QueryError, match="not accepted"):
            executor.execute(FakeOp(units))

    def test_chunk_reissue_charges_but_does_not_recompute(self):
        units = make_units(2)
        op = FakeOp(units, chunks=1)
        install_plan(chunk_reissue=1.0)
        result = TwoPhaseExecutor(PushTapController(dimm_system(), units)).execute(op)
        # One chunk, two units: compute ran once per unit despite re-issue.
        assert op.compute_calls == 2
        assert result.compute_time == pytest.approx(100.0)  # 50 ns charged twice

    def test_interrupt_offload_leaves_banks_released(self):
        units = make_units()
        install_plan(interrupt_offload=1.0)
        controller = OriginalController(dimm_system(), units)
        TwoPhaseExecutor(controller).execute(FakeOp(units))
        assert not controller._offload_active
        assert not any(u.bank.locked for u in units)

    def test_max_retries_bounds_attempts(self):
        units = make_units()
        injector = install_plan(drop_launch=1.0)
        executor = TwoPhaseExecutor(PushTapController(dimm_system(), units))
        with pytest.raises(QueryError):
            executor.execute(FakeOp(units, chunks=1))
        assert injector.retries == MAX_FAULT_RETRIES + 1


class TestOLTPFaults:
    def test_forced_abort_rolls_back_and_counts(self, fresh_engine):
        injector = install_plan(forced_abort=1.0)
        driver = fresh_engine.make_driver(seed=5)
        result = fresh_engine.execute_transaction(driver.next_transaction())
        assert result.aborted
        assert fresh_engine.oltp.aborted == 1
        assert injector.detected[fault_plan.FORCED_ABORT] == 1

    def test_delta_exhaustion_aborts_gracefully(self, fresh_engine):
        injector = install_plan(delta_exhaustion=1.0)
        driver = fresh_engine.make_driver(seed=5, payment_fraction=1.0)
        result = fresh_engine.execute_transaction(driver.next_transaction())
        assert result.aborted
        assert injector.detected[fault_plan.DELTA_EXHAUSTION] >= 1
        # The rollback left MVCC consistent.
        InvariantChecker(fresh_engine).check()


class TestInvariantChecker:
    def test_healthy_engine_passes(self, fresh_engine):
        fresh_engine.run_transactions(30, fresh_engine.make_driver(seed=4))
        fresh_engine.query("Q6")
        checker = InvariantChecker(fresh_engine)
        assert checker.check() == []
        assert checker.checks == 1

    def test_catches_lingering_bank_lock(self, fresh_engine):
        """A controller that never releases banks must be caught."""
        fresh_engine.controller.banks_locked = True
        checker = InvariantChecker(fresh_engine)
        with pytest.raises(InvariantViolation, match="locked"):
            checker.check()
        fresh_engine.controller.banks_locked = False

    def test_catches_broken_finish(self, fresh_engine):
        """A finish() that forgets the pending request must be caught."""
        request = LaunchRequest(OpType.FILTER, {"data_width": 4})
        fresh_engine.controller.launch(request)
        checker = InvariantChecker(fresh_engine, raise_on_violation=False)
        found = checker.check()
        assert any("pending" in v for v in found)
        fresh_engine.controller.finish(request)

    def test_catches_mvcc_log_tampering(self, fresh_engine):
        fresh_engine.run_transactions(10, fresh_engine.make_driver(seed=4))
        table = fresh_engine.table("district")
        assert table.mvcc.journal.records > 0
        table.mvcc._size -= 1  # lose one committed record
        checker = InvariantChecker(fresh_engine, raise_on_violation=False)
        assert checker.check()

    def test_catches_a_head_that_is_not_its_last_update(self, fresh_engine):
        """A row whose head points at an earlier update entry of its own
        is reported; the same engine untouched reports nothing."""
        mvcc = fresh_engine.table("district").mvcc
        first = mvcc.journal.records
        mvcc.update(3, ts=1000)
        mvcc.update(3, ts=1001)
        checker = InvariantChecker(fresh_engine, raise_on_violation=False)
        assert checker.check() == []
        mvcc._head[3] = first  # the row's earlier update entry
        assert checker.check() == ["district: row 3 head is not its last journal update"]

    def test_catches_leaked_delta_allocation(self, fresh_engine):
        mvcc = fresh_engine.table("warehouse").mvcc
        mvcc.delta.allocate(0)  # allocation no chain references
        checker = InvariantChecker(fresh_engine, raise_on_violation=False)
        assert any("unreferenced" in v for v in checker.check())

    @pytest.mark.parametrize("region", [Region.DATA, Region.DELTA])
    @pytest.mark.parametrize("device, at", [(0, 0), (7, 0), (3, -1)], ids=["dev0", "dev7", "dev3-tail"])
    def test_catches_one_device_bitmap_copy_out_of_step(self, fresh_engine, region, device, at):
        """Each device's copy is checked over the whole region, tails
        included: one flipped bit on one device is named, and the same
        engine untouched (after a query and a defragmentation) reports nothing."""
        fresh_engine.run_transactions(20, fresh_engine.make_driver(seed=4))
        fresh_engine.query("Q6")
        fresh_engine.defragment()
        fresh_engine.run_transactions(10, fresh_engine.make_driver(seed=5))
        fresh_engine.query("Q6")
        checker = InvariantChecker(fresh_engine, raise_on_violation=False)
        assert checker.check() == []
        storage = fresh_engine.table("orderline").storage
        addr = storage.bitmap_addr(region) + at % len(storage.read_bitmap(region))
        storage.rank.mem[device, addr] ^= 0x80
        assert checker.check() == [
            f"orderline: stored {region} bitmap copy on device(s) [{device}] "
            "diverges from the in-memory bitmap"
        ]

    @staticmethod
    def misplace(table, ts):
        """Move row 5's key onto row 6."""
        key = table.stored_key(5)
        table.index.remove(key)
        table.index.insert(key, 6)

    @pytest.mark.parametrize(
        "tamper, counts",
        [
            # A tombstone without its unindex leaves a stale key.
            (lambda t, ts: t.mvcc.delete(5, ts), (0, -1, 0, 0, 1)),
            (lambda t, ts: t.index.remove(t.stored_key(5)), (-1, 0, 0, 1, 0)),
            (misplace.__func__, (0, 0, 0, 1, 1)),
            # Row 6's data slot takes row 5's key behind the index's back.
            (lambda t, ts: t.storage.write_columns(6, -1, -1, {"no_o_id": t.stored_key(5)}),
             (0, 0, 1, 1, 1)),
        ],
        ids=["stale", "missing", "misplaced", "duplicate"],
    )
    def test_catches_an_index_out_of_step_with_its_rows(self, fresh_engine, tamper, counts):
        """The index holds exactly the live rows' data-slot keys; the
        same engine untouched (deliveries included) reports nothing.
        ``counts``: keys and live rows against the untouched index, then
        the duplicate keys, rows without their entry and other entries."""
        fresh_engine.run_transactions(
            20, fresh_engine.make_driver(seed=4, delivery_fraction=0.3)
        )
        checker = InvariantChecker(fresh_engine, raise_on_violation=False)
        assert checker.check() == []
        ts = fresh_engine.db.oracle.next_timestamp()
        table = fresh_engine.table("neworder")
        live = len(table.index)
        tamper(table, ts)
        more_keys, more_live, duplicate, missing, other = counts
        assert checker.check() == [
            f"neworder: index 'neworder_pk' holds {live + more_keys} keys for "
            f"{live + more_live} live rows "
            f"at ts {ts} ({duplicate} duplicate keys, {missing} rows without their "
            f"entry, {other} other entries)"
        ]


class TestFaultSweep:
    RATES = FaultRates.parse(
        "drop_launch=0.05,duplicate_launch=0.05,forced_abort=0.1"
    )

    def test_sweep_survives_with_zero_violations(self):
        result = run_fault_sweep(
            1, self.RATES, intervals=2, txns_per_query=15,
            scale=ENGINE_KWARGS["scale"],
            defrag_period=ENGINE_KWARGS["defrag_period"],
        )
        assert result.survived
        assert result.violations == []
        assert sum(result.injected.values()) > 0
        assert sum(result.detected.values()) > 0
        assert result.checks > 0
        # The injector is uninstalled afterwards.
        assert isinstance(faults.active(), NoopInjector)

    def test_sweep_is_deterministic(self):
        kwargs = dict(
            intervals=2, txns_per_query=15,
            scale=ENGINE_KWARGS["scale"],
            defrag_period=ENGINE_KWARGS["defrag_period"],
        )
        a = run_fault_sweep(2, self.RATES, **kwargs)
        b = run_fault_sweep(2, self.RATES, **kwargs)
        assert a.as_dict() == b.as_dict()

    @pytest.mark.parametrize("workload", ["mixed", "serve", "cluster", "crash"])
    def test_rejects_row_without_active_hook(self, workload):
        with pytest.raises(ConfigError, match=f"{workload} sweep row enables no"):
            run_fault_sweep(1, FaultRates({"forced_abort": 0.0}), workload=workload)

    def test_rejects_crash_row_without_crash_hook(self):
        with pytest.raises(ConfigError, match="crash hook"):
            run_fault_sweep(1, FaultRates({"forced_abort": 0.1}), workload="crash")


class TestFaultSweepCLI:
    """``fault-sweep``: one cell per (row, seed), exit code = survival."""

    #: workload -> (grid rows, tiny-size arguments)
    ARGS = {
        "mixed": (1, ["--intervals", "1", "--txns-per-query", "10"]),
        "serve": (1, ["--txns-per-query", "8"]),
        "cluster": (2, [
            "--rates", "twopc_lost_prepare=0.5", "twopc_coordinator_crash=0.5",
            "--intervals", "1", "--txns-per-query", "10",
        ]),
        "crash": (2, [
            "--rates", "crash_after_wal_append=0.3", "crash_mid_checkpoint=0.5",
            "--intervals", "2", "--txns-per-query", "10", "--checkpoint-every", "8",
        ]),
    }

    @staticmethod
    def main(argv):
        from repro.experiments.__main__ import main

        return main(["fault-sweep", *argv])

    @pytest.mark.parametrize("violated", [False, True])
    @pytest.mark.parametrize("workload", sorted(ARGS))
    def test_grid_cells_and_exit_code(
        self, workload, violated, tmp_path, monkeypatch, capsys
    ):
        if violated:
            drive = sweep.WORKLOADS[workload]

            # wraps: the CLI types its flags from the workload's signature.
            @functools.wraps(drive)
            def drive_and_violate(cell, faulted, **params):
                drive(cell, faulted, **params)
                if cell.seed == 2:
                    cell.violations.append("invariant: planted by the test")

            monkeypatch.setitem(sweep.WORKLOADS, workload, drive_and_violate)
        rows, args = self.ARGS[workload]
        out = tmp_path / "cells.json"
        rc = self.main(
            ["--workload", workload, "--seed", "1", "2", "--out", str(out), *args]
        )
        report = json.loads(out.read_text())
        cells = report["cells"]
        assert report["total"] == len(cells) == rows * 2
        assert [cell["seed"] for cell in cells] == [1, 2] * rows
        assert len({json.dumps(cell["rates"]) for cell in cells}) == rows
        assert all(cell["workload"] == workload for cell in cells)
        if violated:
            assert rc == 1
            assert report["survived"] == rows
            assert "seed 2: invariant: planted by the test" in capsys.readouterr().err
        else:
            assert rc == 0
            assert report["survived"] == report["total"]

    def test_vacuous_row_exits_2(self, capsys):
        assert self.main(["--rates", ""]) == 2
        assert "enables no fault hook" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--metrics-out", "--out"])
    def test_unwritable_output_fails_before_any_cell(self, flag, tmp_path, monkeypatch):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran before the output path was checked")

        monkeypatch.setattr(sweep, "run_fault_sweep", no_cell)
        assert self.main([flag, str(tmp_path / "missing" / "out.json")]) == 2
