"""Naive-vs-vectorized equivalence (the perf-regression contract).

Every hot path behind the :mod:`repro.perf` toggle keeps a naive
reference implementation. These property-style tests drive randomized,
seeded histories through both modes and require *identical* results —
masks, refs, aggregates, visible-row sets, log slices, error messages —
so vectorization can never silently change a simulated outcome.
"""

import random

import numpy as np
import pytest

from repro import perf
from repro.errors import TransactionError
from repro.mvcc.manager import MVCCManager
from repro.mvcc.metadata import Region, RowRef
from repro.pim.pim_unit import bytes_to_uints, uints_to_bytes


def both_modes(fn):
    """Run ``fn`` naive then vectorized; return both outcomes.

    Exceptions are captured as ``("err", type, message)`` so failure
    behaviour (including the exact message) is part of the contract.
    """
    def capture():
        try:
            return ("ok", fn())
        except Exception as exc:  # noqa: BLE001 - comparing failure modes
            return ("err", type(exc).__name__, str(exc))

    with perf.naive_mode():
        naive = capture()
    vectorized = capture()
    return naive, vectorized


class TestPerfToggle:
    def test_default_is_vectorized(self):
        assert perf.vectorized()

    def test_naive_mode_restores(self):
        assert perf.vectorized()
        with perf.naive_mode():
            assert not perf.vectorized()
            with perf.naive_mode():
                assert not perf.vectorized()
            assert not perf.vectorized()
        assert perf.vectorized()


class TestCodecEquivalence:
    @pytest.mark.parametrize("width", range(1, 9))
    def test_bytes_to_uints_all_widths(self, width):
        rng = np.random.default_rng(width)
        raw = rng.integers(0, 256, size=width * 257, dtype=np.uint8)
        naive, vectorized = both_modes(lambda: bytes_to_uints(raw, width))
        assert naive[0] == vectorized[0] == "ok"
        np.testing.assert_array_equal(naive[1], vectorized[1])

    @pytest.mark.parametrize("width", range(1, 9))
    def test_uints_roundtrip_all_widths(self, width):
        rng = np.random.default_rng(width + 100)
        values = rng.integers(0, 1 << (8 * width), size=311, dtype=np.uint64)
        naive, vectorized = both_modes(lambda: uints_to_bytes(values, width))
        assert naive[0] == vectorized[0] == "ok"
        np.testing.assert_array_equal(naive[1], vectorized[1])
        np.testing.assert_array_equal(bytes_to_uints(naive[1], width), values)


def make_unit(wram=1 << 14):
    from repro.core.config import DDR5_3200_TIMINGS, DeviceGeometry, PIMUnitConfig
    from repro.pim.device import Device
    from repro.pim.pim_unit import PIMUnit

    device = Device(0, 1 << 18, num_banks=4)
    return PIMUnit(
        0,
        device.banks[0],
        PIMUnitConfig(wram_bytes=wram),
        DDR5_3200_TIMINGS,
        DeviceGeometry(),
    )


class TestPIMUnitEquivalence:
    @pytest.mark.parametrize("stride,chunk", [(16, 4), (16, 16), (24, 7), (8, 8)])
    def test_load_strided(self, stride, chunk):
        rng = np.random.default_rng(stride * 31 + chunk)
        unit = make_unit()
        unit.bank.write(0, rng.integers(0, 256, size=1 << 13, dtype=np.uint8))
        length = 1 << 12

        def run():
            t = unit.load_strided(64, length, stride=stride, chunk=chunk, wram_offset=0)
            return t, unit.wram_read(0, length).copy()

        naive, vectorized = both_modes(run)
        assert naive[0] == vectorized[0] == "ok"
        assert naive[1][0] == vectorized[1][0]  # modelled time
        np.testing.assert_array_equal(naive[1][1], vectorized[1][1])

    def test_op_join_pairs(self):
        rng = np.random.default_rng(7)
        unit = make_unit()
        count1, count2 = 257, 193
        h1 = rng.integers(1, 64, size=count1, dtype=np.uint32)
        h2 = rng.integers(1, 64, size=count2, dtype=np.uint32)
        unit.wram_write(0, h1.view(np.uint8))
        unit.wram_write(count1 * 4, h2.view(np.uint8))
        out_off = (count1 + count2) * 4

        def run():
            t = unit.op_join(0, count1 * 4, out_off, count1, count2)
            count = int(unit.wram_read(out_off, 4).view(np.uint32)[0])
            pairs = unit.wram_read(out_off + 4, count * 8).view(np.uint32).copy()
            return t, count, pairs

        naive, vectorized = both_modes(run)
        assert naive[0] == vectorized[0] == "ok"
        assert naive[1][0] == vectorized[1][0]
        assert naive[1][1] == vectorized[1][1] > 0
        np.testing.assert_array_equal(naive[1][2], vectorized[1][2])

    def test_copy_rows(self):
        rng = np.random.default_rng(13)
        unit = make_unit()
        unit.bank.write(0, rng.integers(0, 256, size=4096, dtype=np.uint8))
        width = 24
        src = np.arange(0, 10 * width, width, dtype=np.intp)
        dst = src + 2048

        def run():
            t = unit.copy_rows(src, dst, width)
            return t, unit.bank.read(2048, 10 * width).copy()

        naive, vectorized = both_modes(run)
        assert naive[0] == vectorized[0] == "ok"
        assert naive[1][0] == vectorized[1][0]
        np.testing.assert_array_equal(naive[1][1], vectorized[1][1])


CAPACITY = 96


def run_history(seed, steps=250):
    """Drive one randomized MVCC history; returns (manager, last_ts).

    Both representations (chains/dicts and the packed index) are
    maintained unconditionally on writes, so a single history serves
    both read modes. Invalid operations are attempted on purpose —
    validation must leave no partial state behind.
    """
    rng = random.Random(seed)
    mvcc = MVCCManager(
        initial_rows=64,
        capacity_rows=CAPACITY,
        block_rows=16,
        num_devices=4,
        delta_capacity_blocks=64,
    )
    ts = 0
    for _ in range(steps):
        roll = rng.random()
        ts += 1
        try:
            if roll < 0.55:
                row = rng.randrange(mvcc.num_rows)
                mvcc.update(row, ts)
                if rng.random() < 0.15:
                    mvcc.undo_update(row)
            elif roll < 0.70:
                row, _ = mvcc.insert(ts)
                if rng.random() < 0.25:
                    mvcc.undo_insert(row)
            elif roll < 0.85:
                row = rng.randrange(mvcc.num_rows)
                mvcc.delete(row, ts)
                if rng.random() < 0.35:
                    mvcc.undo_delete(row)
            elif roll < 0.93:
                mvcc.compact()
            else:
                # Deliberately invalid probes.
                mvcc.update(mvcc.num_rows + 5, ts)
        except TransactionError:
            pass
    return mvcc, ts


@pytest.mark.parametrize("seed", range(8))
class TestMVCCEquivalence:
    def test_reads_and_lengths_identical(self, seed):
        mvcc, last_ts = run_history(seed)
        rng = random.Random(seed + 1000)
        probes = [0, 1, last_ts // 2, last_ts, last_ts + 1] + [
            rng.randrange(last_ts + 2) for _ in range(10)
        ]
        for row in range(mvcc.num_rows):
            for ts in probes:
                naive, vectorized = both_modes(lambda: mvcc.read(row, ts))
                assert naive == vectorized, f"read({row}, {ts})"
            naive, vectorized = both_modes(lambda: mvcc.chain_length(row))
            assert naive == vectorized
            naive, vectorized = both_modes(lambda: mvcc.newest_ref(row))
            assert naive == vectorized

    def test_visible_sets_identical(self, seed):
        mvcc, last_ts = run_history(seed)
        delta_rows = mvcc.delta.capacity_rows
        for ts in (0, last_ts // 3, last_ts // 2, last_ts, last_ts + 1):
            naive, vectorized = both_modes(
                lambda: mvcc.visible_refs_at(ts, delta_rows)
            )
            assert naive[0] == vectorized[0] == "ok"
            np.testing.assert_array_equal(naive[1][0], vectorized[1][0])
            np.testing.assert_array_equal(naive[1][1], vectorized[1][1])

    def test_visible_set_matches_per_row_reads(self, seed):
        mvcc, last_ts = run_history(seed)
        ts = last_ts
        data_bits, delta_bits = mvcc.visible_refs_at(ts, mvcc.delta.capacity_rows)
        expect_data = np.zeros_like(data_bits)
        expect_delta = np.zeros_like(delta_bits)
        for row in range(mvcc.num_rows):
            try:
                ref = mvcc.read(row, ts)
            except TransactionError:
                continue
            if ref.region == Region.DATA:
                expect_data[ref.index] = True
            else:
                expect_delta[ref.index] = True
        np.testing.assert_array_equal(data_bits, expect_data)
        np.testing.assert_array_equal(delta_bits, expect_delta)

    def test_incremental_counters_match_bruteforce(self, seed):
        mvcc, _ = run_history(seed)
        brute_stale = sum(c.length() - 1 for c in mvcc._chains.values())
        assert mvcc.stale_version_count() == brute_stale
        brute_updated = {
            c.row_id
            for c in mvcc._chains.values()
            if c.head.location.region == Region.DELTA
        }
        chains = mvcc.updated_chains()
        assert {c.row_id for c in chains} == brute_updated
        assert len(chains) == len(brute_updated)

    def test_log_queries_match_bruteforce(self, seed):
        mvcc, last_ts = run_history(seed)
        rng = random.Random(seed + 2000)
        bounds = [0, 1, last_ts // 2, last_ts, last_ts + 1] + [
            rng.randrange(last_ts + 2) for _ in range(6)
        ]
        for after in bounds:
            assert list(mvcc.log_since(after)) == [
                r for r in mvcc._log if r.write_ts > after
            ]
            for upto in bounds:
                if after > upto:
                    # Inverted windows are caller bugs, not empty results.
                    with pytest.raises(ValueError):
                        mvcc.log_between(after, upto)
                    with pytest.raises(ValueError):
                        mvcc.log_count_between(after, upto)
                    continue
                records = list(mvcc.log_between(after, upto))
                assert records == [
                    r for r in mvcc._log if after < r.write_ts <= upto
                ]
                assert mvcc.log_count_between(after, upto) == len(records)


@pytest.fixture(scope="module")
def small_engine():
    from repro.core.engine import PushTapEngine

    return PushTapEngine.build(scale=2e-5, seed=3)


class TestStorageEquivalence:
    def test_read_column_values_all_columns(self, small_engine):
        runtime = small_engine.table("orderline")
        num_rows = runtime.num_rows
        for column in runtime.schema.column_names:
            naive, vectorized = both_modes(
                lambda: runtime.storage.read_column_values(
                    Region.DATA, column, num_rows
                )
            )
            assert naive == vectorized

    def test_read_column_values_out_of_range_message(self, small_engine):
        runtime = small_engine.table("orderline")
        column = runtime.schema.column_names[0]
        too_many = runtime.storage.capacity_rows + 1
        naive, vectorized = both_modes(
            lambda: runtime.storage.read_column_values(Region.DATA, column, too_many)
        )
        assert naive == vectorized
        assert naive[0] == "err"

    def test_update_row_unknown_column_message(self, small_engine):
        runtime = small_engine.table("orderline")
        naive, vectorized = both_modes(
            lambda: runtime.update_row(0, 10**9, {"nope": 1})
        )
        assert naive == vectorized
        assert naive[0] == "err"


@pytest.mark.parametrize("seed", range(4))
class TestMVCCBatchedEquivalence:
    """The batched visibility paths behind ``TxnContext.read_many``."""

    def test_fast_row_mask_semantics(self, seed):
        mvcc, last_ts = run_history(seed)
        ids = list(range(-2, mvcc.num_rows + 3))
        mask = mvcc.fast_row_mask(ids)
        assert len(mask) == len(ids)
        for row, fast in zip(ids, mask):
            if not fast:
                continue
            # A fast row resolves to its data slot at *any* timestamp,
            # with a single never-versioned entry and no tombstone.
            assert 0 <= row < mvcc.num_rows
            assert mvcc.chain_length(row) == 1
            assert mvcc.newest_ref(row) == RowRef(Region.DATA, row)
            for ts in (0, last_ts // 2, last_ts + 1):
                ref = mvcc.read(row, ts)
                assert ref.region == Region.DATA and ref.index == row

    def test_read_many_matches_per_row(self, seed):
        mvcc, last_ts = run_history(seed)
        rng = random.Random(seed + 3000)
        for ts in (0, last_ts // 2, last_ts, last_ts + 1):
            ids = [rng.randrange(mvcc.num_rows) for _ in range(40)]
            naive, vectorized = both_modes(lambda: mvcc.read_many(ids, ts))
            assert naive == vectorized

            def per_row():
                return [mvcc.read(row, ts) for row in ids]

            scalar_naive, scalar_vec = both_modes(per_row)
            assert naive == scalar_naive == scalar_vec

    def test_read_many_error_position(self, seed):
        mvcc, last_ts = run_history(seed)
        # A bad id mid-batch must fail exactly like the scalar loop —
        # same exception type and message in both modes.
        ids = [0, 1, mvcc.num_rows + 5, 2]
        naive, vectorized = both_modes(lambda: mvcc.read_many(ids, last_ts))
        scalar, _ = both_modes(lambda: [mvcc.read(r, last_ts) for r in ids])
        assert naive == vectorized == scalar
        assert naive[0] == "err"


def run_txn(build_seed, txn):
    """Execute one transaction on a fresh engine; returns comparable state."""
    from repro.core.engine import PushTapEngine

    engine = PushTapEngine.build(scale=2e-5, seed=build_seed)
    result = engine.execute_transaction(txn)
    runtime = engine.table("orderline")
    return (
        result.ts,
        result.breakdown.as_dict(),
        result.rows_read,
        result.rows_written,
        result.aborted,
        result.value,
        runtime.storage.rank.devices[0].data.copy(),
    )


class TestTxnBatchedEquivalence:
    """``TxnContext.read_many``/``update_many`` vs. the scalar loops.

    The batched calls must charge the identical cost-model breakdown,
    touch the identical device bytes, and fail at the identical position
    — in both host execution modes.
    """

    COLS = ["ol_i_id", "ol_quantity", "ol_amount"]

    def _ids(self, seed, n=24):
        rng = random.Random(seed)
        return [rng.randrange(500) for _ in range(n)]

    @pytest.mark.parametrize("seed", range(3))
    def test_read_many_matches_scalar_reads(self, seed):
        ids = self._ids(seed + 50)
        for columns in (None, self.COLS):

            def batched(ctx):
                ctx.result = ctx.read_many("orderline", ids, columns)

            def scalar(ctx):
                ctx.result = [ctx.read("orderline", r, columns) for r in ids]

            naive_b, vec_b = both_modes(lambda: run_txn(3, batched))
            naive_s, vec_s = both_modes(lambda: run_txn(3, scalar))
            assert naive_b[0] == "ok"
            for got in (vec_b, naive_s, vec_s):
                assert naive_b[1][:-1] == got[1][:-1]
                np.testing.assert_array_equal(naive_b[1][-1], got[1][-1])

    @pytest.mark.parametrize("seed", range(3))
    def test_update_many_matches_scalar_updates(self, seed):
        rng = random.Random(seed + 60)
        updates = [
            (rng.randrange(500), {"ol_quantity": rng.randrange(1, 100)})
            for _ in range(24)
        ]

        def batched(ctx):
            ctx.update_many("orderline", updates)

        def scalar(ctx):
            for row, changes in updates:
                ctx.update("orderline", row, changes)

        naive_b, vec_b = both_modes(lambda: run_txn(3, batched))
        naive_s, vec_s = both_modes(lambda: run_txn(3, scalar))
        assert naive_b[0] == "ok"
        for got in (vec_b, naive_s, vec_s):
            assert naive_b[1][:-1] == got[1][:-1]
            np.testing.assert_array_equal(naive_b[1][-1], got[1][-1])

    def test_batched_error_positions(self):
        bad_reads = [0, 1, 10**6, 2]
        bad_updates = [(0, {"ol_quantity": 1}), (10**6, {"ol_quantity": 2})]

        def read_batched(ctx):
            ctx.read_many("orderline", bad_reads)

        def read_scalar(ctx):
            for row in bad_reads:
                ctx.read("orderline", row)

        def update_batched(ctx):
            ctx.update_many("orderline", bad_updates)

        def update_scalar(ctx):
            for row, changes in bad_updates:
                ctx.update("orderline", row, changes)

        for batched, scalar in (
            (read_batched, read_scalar),
            (update_batched, update_scalar),
        ):
            # The bad row raises out of the engine (TransactionError is
            # a bug, not a business abort) with the identical exception
            # type and message in every mode and shape.
            naive_b, vec_b = both_modes(lambda: run_txn(3, batched))
            naive_s, vec_s = both_modes(lambda: run_txn(3, scalar))
            assert naive_b == vec_b == naive_s == vec_s
            assert naive_b[0] == "err"


def serve_state(arrival):
    """One full serve run; returns (report, telemetry dump) as JSON."""
    import json

    from repro.core.engine import PushTapEngine
    from repro.serve.loop import ServeConfig, ServeLoop
    from repro.telemetry import registry as telemetry

    telemetry.disable()
    engine = PushTapEngine.build(scale=2e-5, seed=5)
    tel = telemetry.enable()
    try:
        config = ServeConfig(
            tenants=2,
            requests_per_tenant=16,
            policy="batched",
            seed=9,
            arrival=arrival,
            olap_fraction=0.3,
        )
        result = ServeLoop(engine, config).run()
        dump = {
            "counters": {k: c.value for k, c in sorted(tel.counters.items())},
            "histograms": {
                k: (h.count, h.sum, list(h.samples))
                for k, h in sorted(tel.histograms.items())
            },
            "spans": [(s.name, s.start, s.duration, s.attrs) for s in tel.spans],
            "sim_time": tel.sim_time,
        }
        return json.dumps(
            {"report": result.report, "telemetry": dump},
            sort_keys=True,
            default=str,
        )
    finally:
        telemetry.disable()


class TestServeBatchedEquivalence:
    @pytest.mark.parametrize("arrival", ["open", "closed"])
    def test_serve_run_identical(self, arrival):
        """The vectorized batch-completion path (SLO bookkeeping, spans,
        closed-loop think draws) reproduces the scalar run exactly —
        full report plus every telemetry sample and span."""
        naive, vectorized = both_modes(lambda: serve_state(arrival))
        assert naive[0] == vectorized[0] == "ok"
        assert naive[1] == vectorized[1]


class TestWorkloadEquivalence:
    def test_tiny_mixed_profile_identical(self):
        from repro.bench.harness import diff_sections, simulated_sections
        from repro.trace.profile import run_profile

        kwargs = dict(
            workload="mixed", intervals=2, txns_per_query=8, scale=2e-5, seed=17
        )
        with perf.naive_mode():
            naive = run_profile(**kwargs)
        vectorized = run_profile(**kwargs)
        drift = diff_sections(
            simulated_sections(naive.bench), simulated_sections(vectorized.bench)
        )
        assert drift == []

    def test_tiny_tpcc_profile_identical(self):
        """Transaction-only profile: covers the batched order-status
        reads and the per-txn telemetry hoisting."""
        from repro.bench.harness import diff_sections, simulated_sections
        from repro.trace.profile import run_profile

        kwargs = dict(
            workload="tpcc", intervals=2, txns_per_query=10, scale=2e-5, seed=17
        )
        with perf.naive_mode():
            naive = run_profile(**kwargs)
        vectorized = run_profile(**kwargs)
        drift = diff_sections(
            simulated_sections(naive.bench), simulated_sections(vectorized.bench)
        )
        assert drift == []
