"""WAL append/replay, leveled checkpoint store, and crash recovery."""

import json
import os

import numpy as np
import pytest

from repro.core.engine import PushTapEngine
from repro.errors import ConfigError, WALError
from repro.experiments.baselines import PINS
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import CRASH_HOOKS, FaultRates
from repro.faults.sweep import run_fault_sweep
from repro.wal import LeveledStore, WriteAheadLog, recover
from repro.wal.log import jsonify, unjsonify
from repro.workloads.tpcc_gen import DATE_EPOCH, DATE_HORIZON
from tests.test_baselines import committed

ENGINE_KWARGS = dict(scale=2e-5, defrag_period=200, block_rows=256)


def build_engine():
    return PushTapEngine.build(**ENGINE_KWARGS)


SAMPLE_OPS = [
    ("update", "customer", 3, {"c_balance": 125, "c_data": b"\x01\xffab"}),
    ("insert", "neworder", 41, {"no_o_id": 9, "no_d_id": 2}),
    ("delete", "neworder", 40),
]


class TestWriteAheadLog:
    def test_append_replay_round_trip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.append(5, [jsonify(op) for op in SAMPLE_OPS])
        wal.append(6, [jsonify(("update", "district", 1, {"d_next_o_id": 10}))])
        wal.close()
        records, torn = wal.replay()
        assert not torn
        assert [ts for ts, _ in records] == [5, 6]
        # Tuples and bytes survive the JSON round trip exactly.
        assert records[0][1] == SAMPLE_OPS

    def test_jsonify_round_trip_values(self):
        value = ("k", b"\x00\x01", 7, {"nested": (1, b"\xff")})
        assert unjsonify(jsonify(value)) == value

    @pytest.mark.parametrize("value", [1.5, np.int64(3), None], ids=["float", "numpy", "none"])
    def test_jsonify_rejects_values_no_column_stores(self, value):
        with pytest.raises(WALError, match="cannot encode"):
            jsonify(("update", "customer", 3, {"c_balance": value}))

    def test_torn_tail_dropped_and_flagged(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(5, [jsonify(op) for op in SAMPLE_OPS])
        wal.append(6, [])
        wal.close()
        with open(path, "ab") as fh:
            fh.write(b'{"crc": 123, "ops": [], "ts')  # cut mid-record
        records, torn = wal.replay()
        assert torn
        assert [ts for ts, _ in records] == [5, 6]

    def test_bad_crc_tail_dropped(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(5, [])
        wal.close()
        with open(path, "ab") as fh:
            fh.write(b'{"crc": 1, "ops": [], "ts": 6}\n')
        records, torn = wal.replay()
        assert torn
        assert [ts for ts, _ in records] == [5]

    def test_mid_log_corruption_raises(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(5, [])
        wal.append(6, [])
        wal.close()
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        lines[0] = b'{"garbage\n'
        with open(path, "wb") as fh:
            fh.writelines(lines)
        with pytest.raises(WALError, match="not the tail"):
            wal.replay()

    def test_timestamp_regression_raises(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.append(6, [])
        wal.append(5, [])
        wal.close()
        with pytest.raises(WALError, match="regress"):
            wal.replay()

    def test_reset_truncates(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.append(5, [jsonify(op) for op in SAMPLE_OPS])
        wal.reset()
        records, torn = wal.replay()
        assert records == [] and not torn


class TestLeveledStore:
    def _segment(self, horizon):
        return {"horizon": horizon, "tables": {}, "bitmaps": {}}

    def test_manifest_round_trip(self, tmp_path):
        store = LeveledStore(str(tmp_path))
        name = store.write_segment(self._segment(10))
        store.commit_segment(name, 10)
        reopened = LeveledStore(str(tmp_path))
        assert reopened.horizon == 10
        assert [s["horizon"] for s in reopened.load_segments()] == [10]

    def test_uncommitted_segment_is_an_orphan(self, tmp_path):
        store = LeveledStore(str(tmp_path))
        name = store.write_segment(self._segment(10))
        reopened = LeveledStore(str(tmp_path))
        assert reopened.drop_orphans() == [name]
        assert not os.path.exists(os.path.join(str(tmp_path), name))

    def test_horizon_regression_rejected(self, tmp_path):
        store = LeveledStore(str(tmp_path))
        store.commit_segment(store.write_segment(self._segment(10)), 10)
        name = store.write_segment(self._segment(5))
        with pytest.raises(WALError, match="horizon"):
            store.commit_segment(name, 5)

    def test_missing_segment_file_detected(self, tmp_path):
        store = LeveledStore(str(tmp_path))
        name = store.write_segment(self._segment(10))
        store.commit_segment(name, 10)
        os.unlink(os.path.join(str(tmp_path), name))
        with pytest.raises(WALError, match="missing"):
            LeveledStore(str(tmp_path))

    def test_compaction_bounds_level_zero(self, tmp_path):
        store = LeveledStore(str(tmp_path), fanout=2)
        for horizon in range(10, 22, 2):
            store.commit_segment(store.write_segment(self._segment(horizon)), horizon)
        assert store.compactions > 0
        assert all(len(level) <= 2 for level in store.levels[:-1])
        # Newest-wins horizon survives the merges.
        assert LeveledStore(str(tmp_path), fanout=2).horizon == 20


class TestDurability:
    def test_wal_cost_charged_to_flush(self, fresh_engine, tmp_path):
        baseline = PushTapEngine.build(**ENGINE_KWARGS)
        result_plain = baseline.execute_transaction(
            baseline.make_driver(seed=4).next_transaction()
        )
        manager = fresh_engine.enable_durability(str(tmp_path / "dur"))
        result = fresh_engine.execute_transaction(
            fresh_engine.make_driver(seed=4).next_transaction()
        )
        assert manager.records == 1
        assert result.breakdown.flush > result_plain.breakdown.flush
        # The engine's OLTP time is taken after the WAL charge.
        assert fresh_engine.stats.oltp_time == result.total_time

    def test_aborted_transactions_not_logged(self, fresh_engine, tmp_path):
        from repro.oltp.tpcc import new_order

        manager = fresh_engine.enable_durability(str(tmp_path / "dur"))
        inner = new_order(fresh_engine.make_driver(seed=5).next_new_order())

        def aborting(ctx):
            inner(ctx)
            ctx.abort()

        result = fresh_engine.oltp.execute(aborting)
        assert result.aborted
        assert manager.records == 0
        assert manager.wal.replay() == ([], False)

    def test_wal_and_segment_bytes_pinned(self):
        """The redo path writes the pinned bytes: values only, no index
        fields (``meta.json`` format 3: a record lists its ops table by
        table, an insert logs its stored row, an update only the columns
        that changed, a bytes value has its column's full width)."""
        assert PINS["wal_durable"]() == committed("pins")["wal_durable"]

    def test_meta_names_the_record_format(self, fresh_engine, tmp_path):
        path = str(tmp_path / "dur")
        fresh_engine.enable_durability(path).close()
        with open(os.path.join(path, "meta.json"), encoding="utf-8") as handle:
            assert json.load(handle)["format"] == 3

    def test_enable_durability_twice_rejected(self, fresh_engine, tmp_path):
        fresh_engine.enable_durability(str(tmp_path / "dur"))
        with pytest.raises(ConfigError):
            fresh_engine.enable_durability(str(tmp_path / "dur2"))

    def test_recover_rejects_durable_builder(self, fresh_engine, tmp_path):
        path = str(tmp_path / "dur")
        fresh_engine.enable_durability(path).close()

        def durable_builder():
            engine = build_engine()
            engine.enable_durability(str(tmp_path / "other"))
            return engine

        with pytest.raises(WALError, match="must not enable durability"):
            recover(path, durable_builder)


#: An order line inside Q1's and Q6's windows, so the rows the redo
#: cases below write count in both queries.
IN_WINDOW = dict(ol_delivery_d=(DATE_EPOCH + DATE_HORIZON) // 2, ol_quantity=5)


def update_twice(ctx):
    """One row updated twice: one journal entry, as when Delivery credits
    one customer for two orders."""
    ctx.update("orderline", 3, dict(IN_WINDOW, ol_amount=111))
    ctx.update("orderline", 3, {"ol_amount": 222})


def insert_then_update(ctx):
    """The update overwrites the inserted row's data slot in place."""
    row = ctx.read("orderline", 0)
    new = ctx.insert("orderline", dict(row, ol_o_id=90_000, **IN_WINDOW))
    ctx.update("orderline", new, {"ol_amount": 333})


def update_then_delete(ctx):
    ctx.update("orderline", 5, dict(IN_WINDOW, ol_amount=444))
    ctx.delete("orderline", 5)


def unchanged_update(ctx):
    """Writes the value the row holds: logged as ``{}``, replayed as a
    version all the same."""
    ctx.update("orderline", 7, ctx.read("orderline", 7, ["ol_amount"]))


class TestRecovery:
    def _run(self, path, txns, checkpoint_every=0, seed=11, last=None):
        """``txns`` TPC-C transactions, then ``last`` if given."""
        engine = build_engine()
        manager = engine.enable_durability(path, checkpoint_every=checkpoint_every)
        driver = engine.make_driver(seed=seed, delivery_fraction=0.1)
        for _ in range(txns):
            engine.execute_transaction(driver.next_transaction())
        if last is not None:
            assert not engine.execute_transaction(last).aborted
        manager.close()
        return engine, manager

    def _assert_matches(self, recovered, live, horizon):
        for name, runtime in live.db.tables.items():
            assert recovered.db.table(name).num_rows == runtime.num_rows, name
        for name, index in live.db.indexes.items():
            assert len(recovered.db.index(name)) == len(index), name
        for query in ("Q1", "Q6", "Q9"):
            assert recovered.query(query).rows == live.query(query).rows, query
        assert InvariantChecker(recovered, raise_on_violation=False).check() == []

    def test_wal_only_recovery(self, tmp_path):
        path = str(tmp_path / "dur")
        live, _ = self._run(path, txns=30)
        result = recover(path, build_engine)
        assert result.checkpoint_horizon == 0
        assert result.segments_applied == 0
        assert result.wal_records_replayed == 30
        assert not result.torn_tail
        assert result.horizon == live.db.oracle.read_timestamp()
        assert result.engine.stats.transactions == live.stats.transactions
        self._assert_matches(result.engine, live, result.horizon)

    def test_checkpoint_plus_wal_recovery(self, tmp_path):
        path = str(tmp_path / "dur")
        live, manager = self._run(path, txns=50, checkpoint_every=8)
        assert manager.checkpoints == 6
        result = recover(path, build_engine)
        assert result.segments_applied >= 1
        assert result.checkpoint_horizon > 0
        assert result.wal_records_replayed == 50 - 6 * 8
        assert result.bitmap_mismatches == []
        self._assert_matches(result.engine, live, result.horizon)

    def test_recovery_after_compaction(self, tmp_path):
        path = str(tmp_path / "dur")
        live, manager = self._run(path, txns=60, checkpoint_every=4)
        assert manager.store.compactions > 0
        result = recover(path, build_engine)
        self._assert_matches(result.engine, live, result.horizon)

    @pytest.mark.parametrize("checkpoint_every", [0, 9], ids=["wal", "segment"])
    @pytest.mark.parametrize(
        "last", [update_twice, insert_then_update, update_then_delete, unchanged_update]
    )
    def test_redo_edge_cases(self, tmp_path, last, checkpoint_every):
        """A record read off the journal replays each of these writes, by
        WAL replay or by segment fold (nine commits, one checkpoint)."""
        path = str(tmp_path / "dur")
        live, _ = self._run(path, txns=8, checkpoint_every=checkpoint_every, last=last)
        result = recover(path, build_engine)
        assert result.segments_applied == (1 if checkpoint_every else 0)
        self._assert_matches(result.engine, live, result.horizon)
        if not checkpoint_every:
            # Replay re-runs every write at its ts: the journals are equal.
            for name, runtime in live.db.tables.items():
                journal = result.engine.db.table(name).mvcc.journal
                for got, want in zip(journal, runtime.mvcc.journal):
                    np.testing.assert_array_equal(got, want, err_msg=name)

    def test_torn_tail_recovery_drops_last_commit(self, tmp_path):
        path = str(tmp_path / "dur")
        live, _ = self._run(path, txns=20)
        wal_path = os.path.join(path, "wal.log")
        with open(wal_path, "rb") as fh:
            data = fh.read()
        with open(wal_path, "wb") as fh:
            fh.write(data[:-10])  # cut the final record mid-line
        result = recover(path, build_engine)
        assert result.torn_tail
        assert result.wal_records_replayed == 19
        assert result.horizon == live.db.oracle.read_timestamp() - 1

    @pytest.mark.parametrize(
        "op",
        [
            ("insert", "neworder", 1200, {"no_d_id": 1, "no_o_id": 9001, "no_w_id": 1},
             ("neworder_pk", 9001)),
            ("delete", "neworder", 40, ("neworder_pk", 41)),
            ("upsert", "neworder", 40, {"no_d_id": 2}),
            ("update", "customer", 3),
        ],
        ids=["format-1 insert", "format-1 delete", "unknown kind", "short update"],
    )
    def test_unknown_op_shape_fails_loudly(self, tmp_path, op):
        """A record this version does not write (a format-1 insert or
        delete still naming its index, an unknown kind, a wrong arity)
        raises naming the ts and the op, before the op is applied."""
        path = str(tmp_path / "dur")
        os.makedirs(path)
        wal = WriteAheadLog(os.path.join(path, "wal.log"))
        wal.append(5, [jsonify(op)])
        wal.close()
        with pytest.raises(WALError) as err:
            recover(path, build_engine)
        assert str(err.value) == f"WAL record at ts 5: unknown op shape {op!r}"

    NEW_ORDER = {"no_d_id": 1, "no_o_id": 9001, "no_w_id": 1}

    @pytest.mark.parametrize(
        "record, segment, message",
        [
            (("insert", "neworder", 99999, NEW_ORDER), None,
             "WAL record at ts 5: neworder insert expected row 99999, got {rows}"),
            (("update", "nosuch", 3, {"x": 1}), None,
             "WAL record at ts 5: unknown table 'nosuch'"),
            (None, {"neworder": {"99999": {"created": True, "deleted": False,
                                           "values": NEW_ORDER}}},
             "segment at horizon 7: neworder row 99999 materialized as {rows}; "
             "segment applied out of order or against the wrong build"),
            (None, {"nosuch": {}}, "segment at horizon 7: unknown table 'nosuch'"),
        ],
        ids=["record insert row", "record table", "segment insert row", "segment table"],
    )
    def test_tampered_replay_names_its_timestamp(self, tmp_path, record, segment, message):
        """A WAL record (ts 5) or checkpoint segment (horizon 7) that the
        build cannot replay raises :class:`WALError` naming that ts."""
        path = str(tmp_path / "dur")
        os.makedirs(path)
        if segment is not None:
            store = LeveledStore(path)
            name = store.write_segment({"horizon": 7, "tables": segment, "bitmaps": {}})
            store.commit_segment(name, 7)
        wal = WriteAheadLog(os.path.join(path, "wal.log"))
        if record is not None:
            wal.append(5, [jsonify(record)])
        wal.close()
        with pytest.raises(WALError) as err:
            recover(path, build_engine)
        rows = build_engine().table("neworder").num_rows
        assert str(err.value) == message.format(rows=rows)

    def test_recovered_engine_keeps_working(self, tmp_path):
        path = str(tmp_path / "dur")
        live, _ = self._run(path, txns=25, checkpoint_every=10)
        result = recover(path, build_engine)
        recovered = result.engine
        driver = recovered.make_driver(seed=99)
        for _ in range(10):
            assert not recovered.execute_transaction(driver.next_transaction()).aborted
        assert InvariantChecker(recovered, raise_on_violation=False).check() == []


class TestCrashSweep:
    # Rates tuned so each hook's deterministic plan fires within the
    # short smoke run (the full-length CLI sweep uses the defaults).
    @pytest.mark.parametrize(
        "hook, rate",
        [
            ("crash_before_wal_append", 0.3),
            ("crash_after_wal_append", 0.3),
            ("crash_mid_checkpoint", None),
        ],
    )
    def test_every_hook_survives(self, hook, rate):
        # None: the checkpoint hook at the sweep's default rate.
        rates = FaultRates({hook: 0.5 if rate is None else rate})
        cell = run_fault_sweep(
            1, rates, workload="crash",
            intervals=4, txns_per_query=15, checkpoint_every=12,
        )
        assert cell.error is None
        assert cell.violations == []
        assert cell.survived
        assert cell.stats["crash_fired"]

    def test_cell_report_shape(self):
        cell = run_fault_sweep(
            2, FaultRates({CRASH_HOOKS[0]: 0.05}), workload="crash",
            intervals=2, txns_per_query=20, checkpoint_every=0,
        )
        report = cell.as_dict()
        assert report["survived"] is True
        assert report["checks"] == 1  # the audit of the recovered engine
        assert json.dumps(report)  # JSON-serializable for the CLI artifact
