"""Production array paths held against row-at-a-time reference oracles.

``src/`` has one implementation of each hot path (the NumPy one). The
row-at-a-time versions it replaced live here, as test-local oracles: the
general positional codec, a per-piece strided load, a dict-probe join, a
per-row copy, a version-chain walk, a per-row column gather. Seeded
randomized histories drive the production code and the oracle side by
side and require *identical* results — masks, refs, pairs, bytes,
modelled times, error messages.

What no oracle reaches (one Order-Status breakdown, the serve loop's
batch completion) is pinned to values computed on the last commit that
still had the naive execution mode (94e14a0), where both modes agreed.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from repro.errors import MemoryError_, TransactionError
from repro.mvcc.manager import MVCCManager
from repro.mvcc.metadata import Region, RowRef
from repro.pim.pim_unit import bytes_to_uints, uints_to_bytes


def capture(fn):
    """Outcome of ``fn`` as a comparable value.

    Exceptions become ``("err", type, message)`` so failure behaviour
    (including the exact message) is part of what an oracle pins.
    """
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - comparing failure modes
        return ("err", type(exc).__name__, str(exc))


# ----------------------------------------------------------------------
# Codecs: native-width dtype views vs the general positional codec
# ----------------------------------------------------------------------
def oracle_bytes_to_uints(raw, width):
    """Positional-weights decode, valid for every width 1..8."""
    mat = np.asarray(raw, dtype=np.uint8).reshape(-1, width).astype(np.uint64)
    weights = np.uint64(1) << (np.uint64(8) * np.arange(width, dtype=np.uint64))
    return (mat * weights).sum(axis=1, dtype=np.uint64)


def oracle_uints_to_bytes(values, width):
    """Per-byte shift encode, valid for every width 1..8."""
    values = np.asarray(values, dtype=np.uint64)
    out = np.empty((len(values), width), dtype=np.uint8)
    for b in range(width):
        out[:, b] = (values >> np.uint64(8 * b)).astype(np.uint8)
    return out.reshape(-1)


class TestCodecEquivalence:
    @pytest.mark.parametrize("width", range(1, 9))
    def test_bytes_to_uints_all_widths(self, width):
        rng = np.random.default_rng(width)
        raw = rng.integers(0, 256, size=width * 257, dtype=np.uint8)
        got = bytes_to_uints(raw, width)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, oracle_bytes_to_uints(raw, width))

    @pytest.mark.parametrize("width", range(1, 9))
    def test_uints_roundtrip_all_widths(self, width):
        rng = np.random.default_rng(width + 100)
        values = rng.integers(0, 1 << (8 * width), size=311, dtype=np.uint64)
        got = uints_to_bytes(values, width)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, oracle_uints_to_bytes(values, width))
        np.testing.assert_array_equal(bytes_to_uints(got, width), values)


# ----------------------------------------------------------------------
# PIM unit: strided load, join, bank-local copy
# ----------------------------------------------------------------------
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


def oracle_load_strided(bank, dram_addr, length, stride, chunk):
    """One ``bank.read`` per ``chunk``-byte piece at ``stride`` spacing."""
    out = np.empty(length, dtype=np.uint8)
    pos = 0
    while pos < length:
        take = min(chunk, length - pos)
        out[pos : pos + take] = bank.read(dram_addr + (pos // chunk) * stride, take)
        pos += take
    return out


def oracle_join_pairs(h1, h2):
    """Build-side dict probed row by row: i ascending, then j ascending;
    hash 0 (an invisible row) never matches."""
    positions = {}
    for j, h in enumerate(h2):
        if h:
            positions.setdefault(int(h), []).append(j)
    return [(i, j) for i, h in enumerate(h1) for j in positions.get(int(h), ())]


def oracle_copy_rows(bank, src_addrs, dst_addrs, width):
    """One bank read + write per row, in order."""
    for src, dst in zip(src_addrs, dst_addrs):
        bank.write(int(dst), bank.read(int(src), width))


class TestPIMUnitEquivalence:
    @pytest.mark.parametrize("stride,chunk", [(16, 4), (16, 16), (24, 7), (8, 8)])
    def test_load_strided(self, stride, chunk):
        rng = np.random.default_rng(stride * 31 + chunk)
        unit = make_unit()
        unit.bank.write(0, rng.integers(0, 256, size=1 << 13, dtype=np.uint8))
        length = 1 << 12
        expected = oracle_load_strided(unit.bank, 64, length, stride, chunk)
        time = unit.load_strided(64, length, stride=stride, chunk=chunk, wram_offset=0)
        np.testing.assert_array_equal(unit.wram_read(0, length), expected)
        # Modelled time and traffic are functions of the shape alone.
        granule = unit.config.access_granularity
        pieces = -(-length // chunk)
        moved = max(length, granule) if stride == chunk else pieces * max(granule, chunk)
        assert unit.stats.dram_bytes_read == moved
        assert time == unit.stats.load_time > 0

    def test_load_strided_out_of_range_leaves_wram(self):
        unit = make_unit()
        unit.wram[:] = 0xAB
        # The last piece ends 4 bytes past the bank.
        start = unit.bank.size - (63 * 16 + 4) + 4
        with pytest.raises(MemoryError_, match="out of range"):
            unit.load_strided(start, 64 * 4, stride=16, chunk=4, wram_offset=0)
        assert (unit.wram == 0xAB).all()
        assert unit.stats.dram_bytes_read == 0
        # One byte range fewer and the same load fits exactly.
        unit.load_strided(start - 4, 64 * 4, stride=16, chunk=4, wram_offset=0)

    def test_op_join_pairs(self):
        rng = np.random.default_rng(7)
        unit = make_unit()
        count1, count2 = 257, 193
        # Hash 0 marks invisible rows: include some on both sides.
        h1 = rng.integers(0, 64, size=count1, dtype=np.uint32)
        h2 = rng.integers(0, 64, size=count2, dtype=np.uint32)
        assert (h1 == 0).any() and (h2 == 0).any()
        unit.wram_write(0, h1.view(np.uint8))
        unit.wram_write(count1 * 4, h2.view(np.uint8))
        out_off = (count1 + count2) * 4
        unit.op_join(0, count1 * 4, out_off, count1, count2)
        count = int(unit.wram_read(out_off, 4).view(np.uint32)[0])
        pairs = unit.wram_read(out_off + 4, count * 8).view(np.uint32)
        expected = oracle_join_pairs(h1, h2)
        assert count == len(expected) > 0
        assert [tuple(p) for p in pairs.reshape(-1, 2).tolist()] == expected

    def test_op_join_no_matches(self):
        unit = make_unit()
        h1 = np.arange(1, 9, dtype=np.uint32)
        h2 = np.concatenate([np.zeros(4, np.uint32), np.arange(100, 104, dtype=np.uint32)])
        unit.wram_write(0, h1.view(np.uint8))
        unit.wram_write(32, h2.view(np.uint8))
        unit.op_join(0, 32, 64, 8, 8)
        assert oracle_join_pairs(h1, h2) == []
        assert int(unit.wram_read(64, 4).view(np.uint32)[0]) == 0

    def test_copy_rows(self):
        rng = np.random.default_rng(13)
        image = rng.integers(0, 256, size=4096, dtype=np.uint8)
        width = 24
        src = np.arange(0, 10 * width, width, dtype=np.intp)
        dst = src + 2048
        unit, reference = make_unit(), make_unit()
        for u in (unit, reference):
            u.bank.write(0, image)
        oracle_copy_rows(reference.bank, src, dst, width)
        time = unit.copy_rows(src, dst, width)
        np.testing.assert_array_equal(
            unit.bank.read(0, 4096), reference.bank.read(0, 4096)
        )
        assert unit.stats.dram_bytes_read == unit.stats.dram_bytes_written == 10 * width
        assert time > unit.stats.load_time > 0  # DRAM transfer + per-row compute

    def test_copy_rows_out_of_range_writes_nothing(self):
        unit = make_unit()
        rng = np.random.default_rng(17)
        unit.bank.write(0, rng.integers(0, 256, size=unit.bank.size, dtype=np.uint8))
        before = unit.bank.read(0, unit.bank.size).copy()
        width = 8
        # The first row is in range; the second source row ends 4 bytes
        # past the bank. Nothing may be copied, not even the first row.
        src = np.array([0, unit.bank.size - 4], dtype=np.intp)
        dst = np.array([1024, 2048], dtype=np.intp)
        for s, d in ((src, dst), (dst, src), (np.array([-8, 0]), dst)):
            with pytest.raises(MemoryError_, match="out of range"):
                unit.copy_rows(s, d, width)
            np.testing.assert_array_equal(unit.bank.read(0, unit.bank.size), before)
        assert unit.stats.dram_bytes_written == 0

    def test_copy_rows_empty_is_zero_rows(self):
        unit = make_unit()
        empty = np.empty(0, dtype=np.intp)
        # No rows: no DRAM traffic, one (minimum) compute step.
        expected = unit.config.cycle_ns * 2
        assert unit.copy_rows(empty, empty, 24) == expected
        assert unit.copy_rows([], [], 24) == expected
        assert unit.stats.dram_bytes_read == unit.stats.dram_bytes_written == 0


# ----------------------------------------------------------------------
# MVCC: packed visibility index vs version-chain walks
# ----------------------------------------------------------------------
CAPACITY = 96


def run_history(seed, steps=250):
    """Drive one randomized MVCC history; returns (manager, last_ts).

    Both representations (chains/dicts and the packed index) are
    maintained on every write, so one history serves the production
    reads and the chain-walk oracles. Invalid operations are attempted
    on purpose — validation must leave no partial state behind.
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


def oracle_read(mvcc, row_id, ts):
    """Tombstone dicts plus a version-chain walk; no packed index."""
    if row_id < 0 or row_id >= mvcc.num_rows:
        raise TransactionError(f"row {row_id} out of range [0, {mvcc.num_rows})")
    if row_id in mvcc._dead_rows:
        raise TransactionError(f"row {row_id} deleted (folded by defragmentation)")
    if row_id in mvcc._tombstones and mvcc._tombstones[row_id] <= ts:
        raise TransactionError(
            f"row {row_id} deleted at ts {mvcc._tombstones[row_id]}"
        )
    chain = mvcc._chains.get(row_id)
    if chain is None:
        return RowRef(Region.DATA, row_id)
    entry = chain.visible_at(ts)
    if entry is None:
        raise TransactionError(f"row {row_id} not visible at ts {ts}")
    return entry.location


def oracle_visible_refs(mvcc, ts, delta_rows):
    """Visibility bitmaps from one :func:`oracle_read` per row."""
    data_bits = np.zeros(mvcc.data.num_rows, dtype=bool)
    delta_bits = np.zeros(delta_rows, dtype=bool)
    for row_id in range(mvcc.num_rows):
        try:
            ref = oracle_read(mvcc, row_id, ts)
        except TransactionError:
            continue
        (data_bits if ref.region == Region.DATA else delta_bits)[ref.index] = True
    return data_bits, delta_bits


@pytest.mark.parametrize("seed", range(8))
class TestMVCCEquivalence:
    def test_reads_and_lengths_identical(self, seed):
        mvcc, last_ts = run_history(seed)
        rng = random.Random(seed + 1000)
        probes = [0, 1, last_ts // 2, last_ts, last_ts + 1] + [
            rng.randrange(last_ts + 2) for _ in range(10)
        ]
        # Two rows past each end: range errors are part of the contract.
        for row in range(-2, mvcc.num_rows + 2):
            for ts in probes:
                expected = capture(lambda: oracle_read(mvcc, row, ts))
                assert capture(lambda: mvcc.read(row, ts)) == expected, (row, ts)
            chain = mvcc._chains.get(row)
            if 0 <= row < mvcc.num_rows:
                assert mvcc.chain_length(row) == (chain.length() if chain else 1)
            else:
                with pytest.raises(TransactionError, match="out of range"):
                    mvcc.chain_length(row)

    def test_read_observes_the_version_it_returns(self, seed):
        mvcc, last_ts = run_history(seed)
        for row, chain in mvcc._chains.items():
            if row in mvcc._tombstones or row in mvcc._dead_rows:
                continue
            for ts in (last_ts + 7, chain.head.write_ts, chain.head.write_ts - 1):
                entry = chain.visible_at(ts)
                if entry is None:
                    continue
                assert mvcc.read(row, ts) == entry.location
                assert entry.read_ts >= ts

    def test_visible_sets_identical(self, seed):
        mvcc, last_ts = run_history(seed)
        delta_rows = mvcc.delta.capacity_rows
        for ts in (0, last_ts // 3, last_ts // 2, last_ts, last_ts + 1):
            data_bits, delta_bits = mvcc.visible_refs_at(ts, delta_rows)
            expect_data, expect_delta = oracle_visible_refs(mvcc, ts, delta_rows)
            np.testing.assert_array_equal(data_bits, expect_data)
            np.testing.assert_array_equal(delta_bits, expect_delta)

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


@pytest.mark.parametrize("seed", range(4))
class TestMVCCBatchedEquivalence:
    """``MVCCManager.read_many`` / ``fast_row_mask`` vs the per-row read."""

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
            batched = capture(lambda: mvcc.read_many(ids, ts))
            assert batched == capture(lambda: [mvcc.read(row, ts) for row in ids])
            assert batched == capture(
                lambda: [oracle_read(mvcc, row, ts) for row in ids]
            )

    def test_read_many_error_position(self, seed):
        mvcc, last_ts = run_history(seed)
        # A bad id mid-batch must fail exactly like the scalar loop —
        # same exception type and message.
        ids = [0, 1, mvcc.num_rows + 5, 2]
        batched = capture(lambda: mvcc.read_many(ids, last_ts))
        assert batched == capture(lambda: [mvcc.read(r, last_ts) for r in ids])
        assert batched[0] == "err"


# ----------------------------------------------------------------------
# Storage: block-wise column gather vs per-row reads
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_engine():
    from repro.core.engine import PushTapEngine

    return PushTapEngine.build(scale=2e-5, seed=3)


class TestStorageEquivalence:
    def test_read_column_values_all_columns(self, small_engine):
        runtime = small_engine.table("orderline")
        storage = runtime.storage
        num_rows = runtime.num_rows
        assert num_rows > storage.block_rows  # spans a rotation change
        for column in runtime.schema.column_names:
            expected = [
                storage.read_row(RowRef(Region.DATA, row), [column])[column]
                for row in range(num_rows)
            ]
            assert storage.read_column_values(Region.DATA, column, num_rows) == expected

    def test_read_column_values_out_of_range_message(self, small_engine):
        storage = small_engine.table("orderline").storage
        column = storage.layout.schema.column_names[0]
        capacity = storage.capacity_rows
        with pytest.raises(MemoryError_) as err:
            storage.read_column_values(Region.DATA, column, capacity + 1)
        assert str(err.value) == f"data row {capacity} out of range [0, {capacity})"
        assert storage.read_column_values(Region.DATA, column, 0) == []

    def test_update_row_unknown_column_message(self, small_engine):
        runtime = small_engine.table("orderline")
        log_length = runtime.mvcc.log_length
        with pytest.raises(TransactionError) as err:
            runtime.update_row(0, 10**9, {"nope": 1})
        assert str(err.value) == "table 'orderline' has no columns ['nope']"
        # Unknown columns raise before the MVCC install.
        assert runtime.mvcc.log_length == log_length
        assert runtime.mvcc.chain_length(0) == 1


# ----------------------------------------------------------------------
# Serve: the batched OLAP completion loop, pinned
# ----------------------------------------------------------------------
def serve_state(arrival):
    """One full serve run; returns (report, telemetry dump) as JSON."""
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


#: sha256 of ``serve_state(arrival)`` at 94e14a0, where the per-request
#: completion loop and the (since deleted) batch-settling path agreed.
SERVE_STATE_SHA256 = {
    "open": "11b77188a140c8730f55a836caf5e22ee2b8cd8a2c55c06f323d690c80446a1d",
    "closed": "aa729ca9fae27745416fa687282b05ad83bb98de39cc85c8fe5cf61ebd828112",
}


class TestServeBatchedEquivalence:
    @pytest.mark.parametrize("arrival", ["open", "closed"])
    def test_serve_run_identical(self, arrival):
        """Full report plus every telemetry sample and span of a batched
        serve run — SLO bookkeeping, request spans, and (closed loop) the
        think draws that start from each query's own completion time."""
        state = serve_state(arrival)
        assert hashlib.sha256(state.encode()).hexdigest() == SERVE_STATE_SHA256[arrival]
