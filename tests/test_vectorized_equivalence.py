"""Production array paths held against row-at-a-time reference oracles.

``src/`` has one implementation of each hot path (the NumPy one). The
row-at-a-time versions it replaced live here, as test-local oracles: the
general positional codec, a per-piece strided load, a dict-probe join, a
per-row copy, the version-chain MVCC manager (:class:`OracleMVCC`), a
per-row, per-run column read, a per-row view fold over a dict Z-set, the
single-engine batch driver (:class:`OracleMixedWorkload`). Seeded randomized histories drive
the production code and the oracle side by side and require *identical*
results — masks, versions, pairs, bytes, modelled times, error messages.

What no oracle reaches (the serve loop's batch completion) is pinned to
values computed on the last commit that still had the naive execution
mode (94e14a0), where both modes agreed.
"""

import bisect
import json
import random
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import PushTapEngine
from repro.errors import (
    ConfigError,
    MemoryError_,
    ProtocolError,
    QueryError,
    TransactionError,
)
from repro.experiments.baselines import PINS, seven_query_state
from repro.faults import injector as faults
from repro.ivm.manager import _APPLY_NS_PER_DELTA, IVMManager, ViewStats
from repro.ivm.views import Q1View, Q6View, Q9View
from repro.ivm.zset import ZSet
from repro.mvcc.manager import KINDS, UPDATE, MVCCManager
from repro.mvcc.metadata import Region
from repro.mvcc.regions import DataRegion, DeltaAllocator
from repro.olap import queries
from repro.pim.pim_unit import bytes_to_uints, uints_to_bytes
from repro.telemetry import registry as telemetry
from repro.telemetry.metrics import Histogram
from repro.units import S
from tests.conftest import unit_work
from tests.test_baselines import committed


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
        bank.device.write(bank.start + int(dst), bank.read(int(src), width))


class TestPIMUnitEquivalence:
    @pytest.mark.parametrize("stride,chunk", [(16, 4), (16, 16), (24, 7), (8, 8)])
    def test_load_strided(self, stride, chunk):
        rng = np.random.default_rng(stride * 31 + chunk)
        unit = make_unit()
        unit.bank.device.write(unit.bank.start, rng.integers(0, 256, size=1 << 13, dtype=np.uint8))
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
            u.bank.device.write(u.bank.start, image)
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
        unit.bank.device.write(unit.bank.start, rng.integers(0, 256, size=unit.bank.size, dtype=np.uint8))
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
# MVCC: the version journal vs the version-chain objects it replaced
# ----------------------------------------------------------------------
CAPACITY = 96


def version_slot(row_id, delta):
    """Version ``(row_id, delta)`` as the ``(region, row)`` the block and
    per-run storage paths address: −1 is the row's data slot."""
    return (Region.DATA, row_id) if delta == -1 else (Region.DELTA, delta)


@dataclass
class VersionEntry:
    """One version of a row; ``location`` is its delta row, −1 for the
    row's data slot (the journal's encoding)."""

    write_ts: int
    location: int
    prev: Optional["VersionEntry"] = None
    read_ts: int = 0

    def observe_read(self, ts: int) -> None:
        """Record a read at timestamp ``ts``."""
        if ts > self.read_ts:
            self.read_ts = ts


@dataclass
class VersionChain:
    """The version chain of one logical row; ``head`` is the newest."""

    row_id: int
    head: VersionEntry

    def visible_at(self, ts: int) -> Optional[VersionEntry]:
        """Newest version with ``write_ts <= ts`` (None if row is newer
        than the reader's snapshot entirely)."""
        entry: Optional[VersionEntry] = self.head
        while entry is not None:
            if entry.write_ts <= ts:
                return entry
            entry = entry.prev
        return None

    def install(self, entry: VersionEntry) -> None:
        """Install a new newest version (timestamps must increase)."""
        if entry.write_ts <= self.head.write_ts:
            raise TransactionError(
                f"row {self.row_id}: new version ts {entry.write_ts} not newer "
                f"than head ts {self.head.write_ts}"
            )
        entry.prev = self.head
        self.head = entry

    def length(self) -> int:
        """Number of versions in the chain."""
        n = 0
        entry: Optional[VersionEntry] = self.head
        while entry is not None:
            n += 1
            entry = entry.prev
        return n

    def versions(self) -> List[VersionEntry]:
        """All versions, newest first."""
        out: List[VersionEntry] = []
        entry: Optional[VersionEntry] = self.head
        while entry is not None:
            out.append(entry)
            entry = entry.prev
        return out

    def stale_refs(self) -> List[int]:
        """Locations of all superseded versions (everything but head)."""
        return [e.location for e in self.versions()[1:]]

    def truncate_to_head(self) -> List[int]:
        """Drop all superseded versions; returns their locations."""
        stale = self.stale_refs()
        self.head.prev = None
        return stale


@dataclass(frozen=True)
class UpdateRecord:
    """One committed write, as replayed by snapshotting.

    ``kind`` is ``"update"``, ``"insert"`` or ``"delete"``. For updates,
    ``new_ref`` is the freshly allocated delta row and ``prev_ref`` the
    version it supersedes; for inserts ``new_ref`` is the appended data
    row; for deletes ``new_ref`` is None. Both are :class:`VersionEntry`
    locations (−1: the row's data slot).
    """

    write_ts: int
    kind: str
    row_id: int
    new_ref: Optional[int]
    prev_ref: Optional[int]


class OracleMVCC:
    """The MVCC manager before the version journal, kept verbatim.

    One table's history five ways: :class:`VersionChain` objects, a
    tombstone dict plus a dead-row set, an :class:`UpdateRecord` log with
    its parallel timestamps, a packed index, and an ``undo_*`` per write
    kind. :meth:`rollback` is the one addition: the journal's abort,
    unwound through the ``undo_*`` calls.
    """

    def __init__(
        self,
        initial_rows: int,
        capacity_rows: int,
        block_rows: int,
        num_devices: int,
        delta_capacity_blocks: int,
    ) -> None:
        if initial_rows > capacity_rows:
            raise TransactionError("initial_rows exceeds capacity_rows")
        self.data = DataRegion(capacity_rows, block_rows, num_devices)
        self.delta = DeltaAllocator(block_rows, num_devices, delta_capacity_blocks)
        self.num_rows = initial_rows
        self._chains: Dict[int, VersionChain] = {}
        self._tombstones: Dict[int, int] = {}
        #: Rows whose deletion defragmentation has folded into the
        #: snapshot bitmap: their tombstone record and log entries are
        #: gone, but the rows stay dead forever (ids are never reused).
        self._dead_rows: Set[int] = set()
        self._log: List[UpdateRecord] = []
        #: Parallel write_ts list of ``_log`` (non-decreasing — commit
        #: order), so ``log_since``/``log_between`` bisect instead of
        #: re-scanning the whole log on every incremental snapshot.
        self._log_ts: List[int] = []
        # Packed visibility index, one entry per data-region row:
        # head write_ts (0 = origin), head delta index (-1 = head lives
        # in the data region), chain length (0 = never versioned),
        # tombstone ts (-1 = live), and the permanent dead flag.
        capacity = max(capacity_rows, 1)
        self._head_ts = np.zeros(capacity, dtype=np.int64)
        self._head_delta = np.full(capacity, -1, dtype=np.int64)
        self._chain_len = np.zeros(capacity, dtype=np.int32)
        self._tomb_ts = np.full(capacity, -1, dtype=np.int64)
        self._dead = np.zeros(capacity, dtype=bool)
        #: Superseded versions outstanding — incremented per installed
        #: update, decremented on undo, zeroed by compaction. Always
        #: equals ``sum(chain.length() - 1)`` (invariant-checked).
        self._stale_versions = 0
        #: Rows whose newest version lives in the delta region, in the
        #: order their head first moved there (an ordered set).
        self._delta_heads: Dict[int, None] = {}

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, row_id: int, ts: int) -> Tuple[int, int]:
        """Locate the version of ``row_id`` visible at ``ts``; returns
        ``(location, chain length)``."""
        self._check_row(row_id)
        if row_id in self._dead_rows:
            raise TransactionError(f"row {row_id} deleted (folded by defragmentation)")
        tomb = self._tombstones.get(row_id)
        if tomb is not None and tomb <= ts:
            raise TransactionError(f"row {row_id} deleted at ts {tomb}")
        chain = self._chains.get(row_id)
        if chain is None:
            return -1, 1
        if self._head_ts[row_id] <= ts:
            # Common case: the newest version is visible — resolved by
            # the packed index without walking the chain.
            head = chain.head
            head.observe_read(ts)
            return head.location, self.chain_length(row_id)
        entry = chain.visible_at(ts)
        if entry is None:
            raise TransactionError(f"row {row_id} not visible at ts {ts}")
        entry.observe_read(ts)
        return entry.location, self.chain_length(row_id)

    def fast_row_mask(self, row_ids) -> np.ndarray:
        """Classify a batch: which rows resolve without any per-row work.

        A ``True`` entry marks an in-range, never-versioned, live row —
        its visible version at *any* timestamp is its data-region origin
        (location −1, chain length 1), with no tombstone check, no chain
        walk, and no read observation. One vectorized pass over the
        packed index answers this for the whole batch; callers send the
        ``False`` rows through :meth:`read` for the full treatment.
        Pure: no side effects, safe to call speculatively.
        """
        ids = np.asarray(row_ids, dtype=np.int64)
        if ids.size == 0:
            return np.zeros(0, dtype=bool)
        fast = (ids >= 0) & (ids < self.num_rows)
        sel = ids[fast]
        ok = (
            (self._chain_len[sel] == 0)
            & (self._tomb_ts[sel] < 0)
            & ~self._dead[sel]
        )
        fast[np.nonzero(fast)[0][~ok]] = False
        return fast

    def read_many(self, row_ids, ts: int) -> List[Tuple[int, int]]:
        """Locate the versions of a batch of rows visible at ``ts``.

        Identical outcomes and side effects to calling :meth:`read` once
        per row in order: the packed index resolves never-versioned live
        rows in one array pass, and only chained / tombstoned / dead /
        out-of-range rows fall back to the per-row path — errors surface
        at the same row, with the same message, as the sequential loop.
        """
        fast = self.fast_row_mask(row_ids)
        return [
            (-1, 1) if fast[i] else self.read(int(row_id), ts)
            for i, row_id in enumerate(row_ids)
        ]

    def newest_delta(self, row_id: int) -> int:
        """Location of the newest version (ignores visibility)."""
        self._check_row(row_id)
        chain = self._chains.get(row_id)
        if chain is None:
            return -1
        return chain.head.location

    def chain_length(self, row_id: int) -> int:
        """Number of versions of ``row_id`` (1 if never updated)."""
        self._check_row(row_id)
        if row_id not in self._chains:
            return 1
        # O(1) from the packed index instead of a chain walk.
        return int(self._chain_len[row_id])

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def update(self, row_id: int, ts: int) -> Tuple[int, int, int]:
        """Create a new version of ``row_id``; returns ``(superseded
        location, new location, chain length before)``.

        The delta row is allocated with the same rotation as the row's
        data block so defragmentation can copy it back device-locally.
        A repeated update at the *same* timestamp (the same transaction
        touching one row twice, e.g. a Delivery batch crediting one
        customer for two orders) overwrites that transaction's version in
        place: no new allocation, no new log record, one undo step.
        All validation happens before the delta allocation, so a failed
        update never leaks a delta row.
        """
        self._check_row(row_id)
        if row_id in self._dead_rows:
            raise TransactionError(f"row {row_id} deleted (folded by defragmentation)")
        chain = self._chains.get(row_id)
        before = self.chain_length(row_id)
        if chain is not None:
            if chain.head.write_ts == ts:
                return chain.head.location, chain.head.location, before
            if chain.head.write_ts > ts:
                raise TransactionError(
                    f"row {row_id}: update ts {ts} precedes head ts "
                    f"{chain.head.write_ts}"
                )
        rotation = self.data.rotation_of(row_id)
        delta_index = self.delta.allocate(rotation)
        new_ref = delta_index
        if chain is None:
            origin = VersionEntry(write_ts=0, location=-1)
            chain = VersionChain(row_id, origin)
            self._chains[row_id] = chain
            self._chain_len[row_id] = 1
        prev_ref = chain.head.location
        chain.install(VersionEntry(write_ts=ts, location=new_ref))
        self._chain_len[row_id] += 1
        self._head_ts[row_id] = ts
        self._head_delta[row_id] = delta_index
        self._stale_versions += 1
        if row_id not in self._delta_heads:
            self._delta_heads[row_id] = None
        self._append_log(UpdateRecord(ts, "update", row_id, new_ref, prev_ref))
        return prev_ref, new_ref, before

    def insert(self, ts: int) -> int:
        """Append a new row at the data-region cursor; returns its id."""
        if self.num_rows >= self.data.num_rows:
            raise TransactionError(
                f"table full: capacity {self.data.num_rows} rows reached"
            )
        row_id = self.num_rows
        self.num_rows += 1
        self._chains[row_id] = VersionChain(row_id, VersionEntry(ts, -1))
        self._chain_len[row_id] = 1
        self._head_ts[row_id] = ts
        self._head_delta[row_id] = -1
        self._append_log(UpdateRecord(ts, "insert", row_id, -1, None))
        return row_id

    def delete(self, row_id: int, ts: int) -> int:
        """Tombstone a row as of ``ts``; returns its chain length."""
        self._check_row(row_id)
        if row_id in self._tombstones or row_id in self._dead_rows:
            raise TransactionError(f"row {row_id} already deleted")
        self._tombstones[row_id] = ts
        self._tomb_ts[row_id] = ts
        self._append_log(UpdateRecord(ts, "delete", row_id, None, self.newest_delta(row_id)))
        return self.chain_length(row_id)

    # ------------------------------------------------------------------
    # Rollback (transaction aborts)
    # ------------------------------------------------------------------
    def undo_update(self, row_id: int) -> int:
        """Remove the newest version of ``row_id`` (abort path).

        The popped delta row is released and the matching log record
        dropped; returns the removed version's location.
        """
        chain = self._chains.get(row_id)
        if chain is None or chain.head.prev is None:
            raise TransactionError(f"row {row_id} has no version to undo")
        removed = chain.head.location
        if removed < 0:
            raise TransactionError(f"row {row_id}: newest version is not in the delta")
        # Validate the log tail before mutating anything (undo is atomic).
        self._pop_log("update", row_id)
        chain.head = chain.head.prev
        self.delta.release(removed)
        self._stale_versions -= 1
        self._chain_len[row_id] -= 1
        head = chain.head
        self._head_ts[row_id] = head.write_ts
        self._head_delta[row_id] = head.location
        if head.location < 0:
            self._delta_heads.pop(row_id, None)
        return removed

    def undo_insert(self, row_id: int) -> None:
        """Remove a freshly appended row (abort path).

        Only the most recent insert can be undone — aborts unwind in
        reverse order.
        """
        if row_id != self.num_rows - 1:
            raise TransactionError(
                f"can only undo the most recent insert (row {self.num_rows - 1}), "
                f"got {row_id}"
            )
        self._pop_log("insert", row_id)
        del self._chains[row_id]
        self.num_rows -= 1
        self._chain_len[row_id] = 0
        self._head_ts[row_id] = 0
        self._head_delta[row_id] = -1

    def undo_delete(self, row_id: int) -> None:
        """Remove a tombstone (abort path)."""
        if row_id not in self._tombstones:
            raise TransactionError(f"row {row_id} is not deleted")
        self._pop_log("delete", row_id)
        del self._tombstones[row_id]
        self._tomb_ts[row_id] = -1

    def rollback(self, ts: int) -> List[Tuple[int, int]]:
        """Undo the log's tail records stamped ``ts``, newest first;
        returns their ``(kind code, row_id)`` pairs in that order."""
        if self._log and self._log[-1].write_ts > ts:
            raise TransactionError(
                f"rollback of ts {ts}: the journal tail holds newer ts "
                f"{self._log[-1].write_ts}"
            )
        undone = []
        while self._log and self._log[-1].write_ts == ts:
            record = self._log[-1]
            undone.append((KINDS.index(record.kind), record.row_id))
            getattr(self, f"undo_{record.kind}")(record.row_id)
        return undone

    def _append_log(self, record: UpdateRecord) -> None:
        self._log.append(record)
        self._log_ts.append(record.write_ts)

    def _pop_log(self, kind: str, row_id: int) -> None:
        if not self._log or self._log[-1].kind != kind or self._log[-1].row_id != row_id:
            raise TransactionError(
                f"log tail does not match undo of {kind} on row {row_id}"
            )
        self._log.pop()
        self._log_ts.pop()

    def tombstoned_rows(self) -> List[int]:
        """Row ids deleted so far (all committed in the single-writer sim).

        Includes both pending tombstones and rows whose deletion a past
        defragmentation already folded into the snapshot bitmap.
        """
        return sorted(set(self._tombstones) | self._dead_rows)

    def dead_rows(self) -> List[int]:
        """Row ids whose deletion defragmentation has already folded."""
        return sorted(self._dead_rows)

    # ------------------------------------------------------------------
    # Snapshot / defragmentation support
    # ------------------------------------------------------------------
    def log_since(self, ts: int) -> Iterator[UpdateRecord]:
        """Committed records with ``write_ts > ts``, in commit order.

        Timestamps are appended in commit order (non-decreasing,
        invariant-checked), so the start position bisects in O(log n)
        rather than re-scanning the whole log.
        """
        return iter(self._log[bisect.bisect_right(self._log_ts, ts) :])

    def log_between(self, after_ts: int, upto_ts: int) -> Iterator[UpdateRecord]:
        """Records with ``after_ts < write_ts <= upto_ts`` (snapshotting).

        An inverted window (``after_ts > upto_ts``) raises — in the
        snapshot/IVM paths it is always a caller bug (a cursor that ran
        ahead of the target timestamp), and silently yielding nothing
        would let a stale view pass for a fresh one.
        """
        lo, hi = self._log_window(after_ts, upto_ts)
        return iter(self._log[lo:hi])

    def log_count_between(self, after_ts: int, upto_ts: int) -> int:
        """Number of records :meth:`log_between` would yield, in O(log n).

        Cost estimation (e.g. the serve scheduler's apply-deltas vs
        full-rescan decision) needs the count without materializing or
        consuming the records.
        """
        lo, hi = self._log_window(after_ts, upto_ts)
        return hi - lo

    def _log_window(self, after_ts: int, upto_ts: int) -> Tuple[int, int]:
        """Bisect the log slice for ``(after_ts, upto_ts]`` windows."""
        if after_ts > upto_ts:
            raise ValueError(
                f"inverted update-log window: after_ts {after_ts} > upto_ts {upto_ts}"
            )
        lo = bisect.bisect_right(self._log_ts, after_ts)
        hi = bisect.bisect_right(self._log_ts, upto_ts, lo=lo)
        return lo, hi

    @property
    def log_length(self) -> int:
        """Number of committed write records retained."""
        return len(self._log)

    def updated_chains(self) -> List[VersionChain]:
        """Chains whose newest version lives in the delta region.

        O(updated rows) via the maintained delta-head set, in the order
        each row's head first moved to the delta region.
        """
        return [self._chains[row_id] for row_id in self._delta_heads]

    def stale_version_count(self) -> int:
        """Superseded versions awaiting defragmentation (O(1))."""
        return self._stale_versions

    def visible_refs_at(self, ts: int, delta_rows: int) -> Tuple[np.ndarray, np.ndarray]:
        """Visibility bitmaps at ``ts``, batched over the packed index.

        Returns boolean arrays over the data region (``capacity_rows``
        entries) and the delta region's first ``delta_rows`` entries.
        Rows whose head is newer than ``ts`` fall back to a chain walk —
        the only per-row work, and only for in-flight multi-version rows.
        Unlike :meth:`read`, this never observes reads (it describes a
        snapshot, it doesn't take part in concurrency control).
        """
        n = self.num_rows
        data_bits = np.zeros(self.data.num_rows, dtype=bool)
        delta_bits = np.zeros(max(delta_rows, 1), dtype=bool)[:delta_rows]
        if n == 0:
            return data_bits, delta_bits
        head_ts = self._head_ts[:n]
        head_delta = self._head_delta[:n]
        chain_len = self._chain_len[:n]
        tomb = self._tomb_ts[:n]
        alive = ~self._dead[:n] & ~((tomb >= 0) & (tomb <= ts))
        head_visible = alive & ((chain_len == 0) | (head_ts <= ts))
        rows = np.nonzero(head_visible)[0]
        deltas = head_delta[rows]
        data_bits[rows[deltas < 0]] = True
        delta_bits[deltas[deltas >= 0]] = True
        # Rare fallback: alive rows whose newest version post-dates ts.
        for row in np.nonzero(alive & (chain_len > 0) & (head_ts > ts))[0]:
            entry = self._chains[int(row)].visible_at(int(ts))
            if entry is None:
                continue
            if entry.location < 0:
                data_bits[row] = True
            else:
                delta_bits[entry.location] = True
        return data_bits, delta_bits

    def compact(self) -> List[Tuple[int, int]]:
        """Defragmentation bookkeeping: fold newest versions into the data
        region.

        Returns ``(row_id, delta row)`` pairs that the storage layer must
        copy back (delta → origin data row). Tombstoned rows are *not*
        moved — copying a dead row's newest delta version back would be a
        wasted Eq. 1/2 transfer since no future read can observe it.
        Their chains are dropped and the tombstones folded into the
        permanent dead-row set (the log entries that carried them are
        cleared here, so the deletions must survive elsewhere). Chains of
        live rows are truncated, all delta rows released, and the update
        log cleared up to now.
        """
        dead = self._dead_rows | set(self._tombstones)
        moves: List[Tuple[int, int]] = []
        for chain in list(self._chains.values()):
            if chain.row_id in dead:
                del self._chains[chain.row_id]
                continue
            head_loc = chain.head.location
            if head_loc >= 0:
                moves.append((chain.row_id, head_loc))
                chain.head.location = -1
            chain.truncate_to_head()
        self._dead_rows.update(self._tombstones)
        self._tombstones.clear()
        self.delta.release_all()
        self._log.clear()
        self._log_ts.clear()
        # Packed index: batch-fold the same transitions.
        self._stale_versions = 0
        self._delta_heads.clear()
        if dead:
            folded = np.fromiter(dead, dtype=np.int64, count=len(dead))
            self._dead[folded] = True
            self._tomb_ts[folded] = -1
            self._chain_len[folded] = 0
            self._head_ts[folded] = 0
            self._head_delta[folded] = -1
        if self._chains:
            live = np.fromiter(self._chains.keys(), dtype=np.int64, count=len(self._chains))
            self._chain_len[live] = 1
            self._head_delta[live] = -1
        return moves

    def _check_row(self, row_id: int) -> None:
        if row_id < 0 or row_id >= self.num_rows:
            raise TransactionError(f"row {row_id} out of range [0, {self.num_rows})")


def both(managers, op):
    """Apply ``op`` to the production manager and the oracle; their
    outcomes (value or exception and message) must agree."""
    mvcc, oracle = managers
    assert capture(lambda: op(mvcc)) == capture(lambda: op(oracle))


def assert_updated_rows_match_journal(mvcc):
    """The rows read off the heads are the journal's updated rows: the
    ``np.unique`` derivation compaction ran before, kept as the oracle."""
    journal = mvcc.journal
    expected = np.unique(journal.row_id[journal.kind == UPDATE])
    np.testing.assert_array_equal(mvcc.updated_rows(), expected)


def compact_both(mvcc, oracle):
    """Compact both; the same rows move from the same delta rows."""
    assert_updated_rows_match_journal(mvcc)
    rows, deltas = mvcc.compact()
    moves = oracle.compact()
    assert list(zip(rows.tolist(), deltas.tolist())) == sorted(moves)


def window_records(window):
    """A journal window as the oracle's :class:`UpdateRecord` objects."""
    records = []
    for ts, kind, row, delta, old in zip(*(column.tolist() for column in window)):
        name = KINDS[kind]
        records.append(
            UpdateRecord(
                ts,
                name,
                row,
                None if name == "delete" else delta,
                None if name == "insert" else old,
            )
        )
    return records


def newest_delta(mvcc, row):
    """The production manager's newest version of ``row`` (ignores
    visibility): its head's delta row, −1 for the data slot."""
    head = mvcc._head[row]
    return int(mvcc._delta[head]) if head >= 0 else -1


def assert_same_state(mvcc, oracle, probes=()):
    """Every public output of the two managers agrees, and so do their
    newest versions."""
    assert mvcc.num_rows == oracle.num_rows
    assert mvcc.journal.records == oracle.log_length
    assert window_records(mvcc.journal) == oracle._log
    assert mvcc.stale_version_count() == oracle.stale_version_count()
    assert mvcc.updated_rows().size == len(oracle.updated_chains())
    assert mvcc.tombstoned_rows() == oracle.tombstoned_rows()
    assert mvcc.delta.allocated_rows == oracle.delta.allocated_rows
    for row in range(mvcc.num_rows):
        assert mvcc.chain_length(row) == oracle.chain_length(row)
        assert newest_delta(mvcc, row) == oracle.newest_delta(row)
        for ts in probes:
            assert capture(lambda: mvcc.read(row, ts)) == capture(lambda: oracle.read(row, ts))
    for ts in probes:
        rows = mvcc.delta.capacity_rows
        for got, expected in zip(mvcc.visible_refs_at(ts, rows), oracle.visible_refs_at(ts, rows)):
            np.testing.assert_array_equal(got, expected)


def run_history(seed, steps=250):
    """Drive one randomized history through the production manager and
    the oracle side by side; returns ``(manager, oracle, last_ts)``.

    Every step's outcome must agree. Each write runs at its own ts, so a
    ``rollback(ts)`` right after it aborts exactly that write. Invalid
    operations are attempted on purpose — validation must leave no
    partial state behind.
    """
    rng = random.Random(seed)
    managers = [
        cls(initial_rows=64, capacity_rows=CAPACITY, block_rows=16, num_devices=4,
            delta_capacity_blocks=64)
        for cls in (MVCCManager, OracleMVCC)
    ]
    mvcc = managers[0]
    ts = 0
    for _ in range(steps):
        roll = rng.random()
        ts += 1
        if roll < 0.55:
            row = rng.randrange(mvcc.num_rows)
            both(managers, lambda m: m.update(row, ts))
            abort = rng.random() < 0.15
        elif roll < 0.70:
            both(managers, lambda m: m.insert(ts))
            abort = rng.random() < 0.25
        elif roll < 0.85:
            row = rng.randrange(mvcc.num_rows)
            both(managers, lambda m: m.delete(row, ts))
            abort = rng.random() < 0.35
        elif roll < 0.93:
            compact_both(*managers)
            abort = False
        else:
            # Deliberately invalid probes.
            both(managers, lambda m: m.update(m.num_rows + 5, ts))
            abort = False
        if abort:
            both(managers, lambda m: m.rollback(ts))
    assert_updated_rows_match_journal(mvcc)
    return managers[0], managers[1], ts


@pytest.mark.parametrize("seed", range(8))
class TestMVCCEquivalence:
    def test_reads_and_lengths_identical(self, seed):
        mvcc, oracle, last_ts = run_history(seed)
        rng = random.Random(seed + 1000)
        probes = [0, 1, last_ts // 2, last_ts, last_ts + 1] + [
            rng.randrange(last_ts + 2) for _ in range(10)
        ]
        # Two rows past each end: range errors are part of the contract.
        for row in range(-2, mvcc.num_rows + 2):
            for ts in probes:
                expected = capture(lambda: oracle.read(row, ts))
                assert capture(lambda: mvcc.read(row, ts)) == expected, (row, ts)
            assert capture(lambda: mvcc.chain_length(row)) == capture(
                lambda: oracle.chain_length(row)
            )

    def test_read_observes_the_version_it_returns(self, seed):
        mvcc, oracle, last_ts = run_history(seed)
        for row in range(mvcc.num_rows):
            for ts in (last_ts + 7, last_ts // 2, 1):
                if capture(lambda: oracle.read(row, ts))[0] == "err":
                    continue
                delta, _ = mvcc.read(row, ts)
                pos = mvcc._version_at(row, ts)
                if pos >= 0:
                    # A delta version's read ts is the oracle entry's.
                    entry = oracle._chains[row].visible_at(ts)
                    assert delta == entry.location
                    assert mvcc._read_ts[pos] == entry.read_ts >= ts
                else:
                    assert delta == -1
                    assert mvcc._base_read_ts[row] >= ts

    def test_visible_sets_identical(self, seed):
        mvcc, oracle, last_ts = run_history(seed)
        delta_rows = mvcc.delta.capacity_rows
        for ts in (0, last_ts // 3, last_ts // 2, last_ts, last_ts + 1):
            data_bits, delta_bits = mvcc.visible_refs_at(ts, delta_rows)
            expect_data, expect_delta = oracle.visible_refs_at(ts, delta_rows)
            np.testing.assert_array_equal(data_bits, expect_data)
            np.testing.assert_array_equal(delta_bits, expect_delta)

    def test_visible_set_matches_per_row_reads(self, seed):
        mvcc, _, last_ts = run_history(seed)
        ts = last_ts
        data_bits, delta_bits = mvcc.visible_refs_at(ts, mvcc.delta.capacity_rows)
        expect_data = np.zeros_like(data_bits)
        expect_delta = np.zeros_like(delta_bits)
        for row in range(mvcc.num_rows):
            try:
                delta, _ = mvcc.read(row, ts)
            except TransactionError:
                continue
            if delta == -1:
                expect_data[row] = True
            else:
                expect_delta[delta] = True
        np.testing.assert_array_equal(data_bits, expect_data)
        np.testing.assert_array_equal(delta_bits, expect_delta)

    def test_incremental_counters_match_bruteforce(self, seed):
        mvcc, oracle, _ = run_history(seed)
        assert_same_state(mvcc, oracle)

    def test_log_queries_match_bruteforce(self, seed):
        mvcc, oracle, last_ts = run_history(seed)
        rng = random.Random(seed + 2000)
        bounds = [0, 1, last_ts // 2, last_ts, last_ts + 1] + [
            rng.randrange(last_ts + 2) for _ in range(6)
        ]
        for after in bounds:
            for upto in bounds:
                if after > upto:
                    # Inverted windows are caller bugs, not empty results.
                    for manager in (mvcc, oracle):
                        with pytest.raises(ValueError):
                            manager.log_between(after, upto)
                        with pytest.raises(ValueError):
                            manager.log_count_between(after, upto)
                    continue
                records = window_records(mvcc.log_between(after, upto))
                assert records == list(oracle.log_between(after, upto))
                assert mvcc.log_count_between(after, upto) == len(records)


@pytest.mark.parametrize("seed", range(4))
class TestMVCCBatchedEquivalence:
    """``MVCCManager.read_many`` vs the per-row reads of both managers."""

    def test_read_many_matches_per_row(self, seed):
        mvcc, oracle, last_ts = run_history(seed)
        rng = random.Random(seed + 3000)
        for ts in (0, last_ts // 2, last_ts, last_ts + 1):
            ids = [rng.randrange(mvcc.num_rows) for _ in range(40)]
            batched = capture(lambda: mvcc.read_many(ids, ts))
            assert batched == capture(lambda: [mvcc.read(row, ts) for row in ids])
            assert batched == capture(lambda: [oracle.read(row, ts) for row in ids])

    def test_read_many_error_position(self, seed):
        mvcc, oracle, last_ts = run_history(seed)
        # A bad id mid-batch must fail exactly like the scalar loop —
        # same exception type and message.
        ids = [0, 1, mvcc.num_rows + 5, 2]
        batched = capture(lambda: mvcc.read_many(ids, last_ts))
        assert batched == capture(lambda: [oracle.read(r, last_ts) for r in ids])
        assert batched[0] == "err"


class OracleDeltaAllocator(DeltaAllocator):
    """:class:`DeltaAllocator` with ``release_all``'s sorted per-index loop."""

    def release_all(self):
        count = len(self._allocated)
        for index in sorted(self._allocated):
            self._free[self.rotation_of(index)].append(index)
        self._allocated.clear()
        return count


@pytest.mark.parametrize("block_rows, devices", [(1, 1), (4, 3), (16, 4), (64, 8)])
@pytest.mark.parametrize("seed", range(3))
def test_release_all_matches_the_per_index_loop(seed, block_rows, devices):
    """Random allocate / release / ``release_all`` sequences: after each
    step every rotation's free list equals the oracle's, and so does
    every allocation (or its error)."""
    rng = random.Random(seed * 97 + block_rows * 7 + devices)
    allocators = [cls(block_rows, devices, 24) for cls in (DeltaAllocator, OracleDeltaAllocator)]
    for _ in range(400):
        roll = rng.random()
        if roll < 0.7:
            rotation = rng.randrange(devices)
            got, want = (capture(lambda: a.allocate(rotation)) for a in allocators)
            assert got == want
        elif roll < 0.85 and allocators[1]._allocated:
            index = rng.choice(sorted(allocators[1]._allocated))
            for allocator in allocators:
                allocator.release(index)
        elif roll > 0.95:
            assert allocators[0].release_all() == allocators[1].release_all()
        fast, slow = allocators
        assert fast._free == slow._free
        assert fast._allocated == slow._allocated
        assert fast.high_water_rows == slow.high_water_rows


def oracle_update_to(data_bits, delta_bits, records, line):
    """The per-record snapshot replay: one bit at a time, in commit order.

    Returns the flipped-bit count and the bytes of the packed-bitmap
    cache lines those flips touched."""
    flips = 0
    touched = set()
    for record in records:
        changes = []
        if record.kind != "insert":
            changes.append((record.prev_ref, False))
        if record.kind != "delete":
            changes.append((record.new_ref, True))
        for delta, value in changes:
            region, row = version_slot(record.row_id, delta)
            bits = data_bits if region == Region.DATA else delta_bits
            if bits[row] != value:
                bits[row] = value
                flips += 1
                touched.add((region, row // (8 * line)))
    return flips, len(touched) * line


@pytest.mark.parametrize("seed", range(3))
def test_snapshot_update_matches_per_record_replay(seed):
    """``SnapshotManager.update_to`` folds a journal window with array
    ops; its bitmaps and its cost equal a record-at-a-time replay, across
    deliveries (deletes), aborts and defragmentations."""
    from repro.core.engine import PushTapEngine

    engine = PushTapEngine.build(scale=2e-5, seed=seed, defrag_period=70)
    driver = engine.make_driver(seed=seed + 1, delivery_fraction=0.2)
    line = engine.config.geometry.cache_line_bytes
    for step in range(8):
        engine.run_transactions(5 + 7 * step, driver)
        ts = engine.db.oracle.read_timestamp()
        for runtime in engine.db.tables.values():
            snap, mvcc = runtime.snapshots, runtime.mvcc
            data, delta = snap.visible_data_rows(), snap.visible_delta_rows()
            records = window_records(mvcc.log_between(snap.last_snapshot_ts, ts))
            flips, nbytes = oracle_update_to(data, delta, records, line)
            cost = snap.update_to(ts)
            assert (cost.records, cost.bits_flipped, cost.bitmap_bytes) == (
                len(records), flips, nbytes
            )
            np.testing.assert_array_equal(snap.visible_data_rows(), data)
            np.testing.assert_array_equal(snap.visible_delta_rows(), delta)


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
                storage.read_row(row, -1, [column])[column]
                for row in range(num_rows)
            ]
            assert storage.read_column_values(Region.DATA, column, num_rows) == expected

    def test_read_column_values_out_of_range_message(self, small_engine):
        storage = small_engine.table("orderline").storage
        column = storage.layout.schema.column_names[0]
        capacity = storage.capacity_rows
        with pytest.raises(MemoryError_) as err:
            storage.read_column_values(Region.DATA, column, capacity + 1)
        assert str(err.value) == (
            f"table 'orderline': data row {capacity} out of range [0, {capacity})"
        )
        assert storage.read_column_values(Region.DATA, column, 0) == []

    def test_update_row_unknown_column_message(self, small_engine):
        runtime = small_engine.table("orderline")
        log_length = runtime.mvcc.journal.records
        with pytest.raises(TransactionError) as err:
            runtime.update_row(0, 10**9, {"nope": 1})
        assert str(err.value) == "table 'orderline' has no columns ['nope']"
        # Unknown columns raise before the MVCC install.
        assert runtime.mvcc.journal.records == log_length
        assert runtime.mvcc.chain_length(0) == 1


# ----------------------------------------------------------------------
# Storage: the read plans (gather and scalar) vs per-row, per-run reads
# ----------------------------------------------------------------------
def row_addr(storage, region, part_index, row):
    """``TableStorage.row_addr``: bank-local address of a row's slot bytes
    in one part, identical on every device."""
    capacity = storage._region_capacity(region)
    if row < 0 or row >= capacity:
        raise MemoryError_(f"{region} row {row} out of range [0, {capacity})")
    block, within = divmod(row, storage.block_rows)
    width = storage.layout.parts[part_index].row_width
    return storage._region_blocks(region, part_index)[block] + within * width


def rotation_of(storage, region, row):
    """``TableStorage.rotation_of``: the circulant rotation of a row's block."""
    return storage.placement.rotation_of_block(row // storage.block_rows)


def device_of_slot(storage, region, row, slot_index):
    """``TableStorage.device_of_slot``: the device holding one slot of a row."""
    return (slot_index + rotation_of(storage, region, row)) % storage.rank.num_devices


def oracle_read_rows(storage, region, rows, columns):
    """``read_row`` as it ran before the read plans, once per row: every
    column run is one ``row_addr`` + ``Rank.device_read``, the runs are
    assembled into the column's bytes and decoded by ``Column.decode``.
    Returns ``{column: [value per row]}``."""
    num_devices = storage.rank.num_devices
    out = {name: [] for name in columns}
    for row in rows:
        for name in columns:
            col = storage.layout.schema.column(name)
            buf = bytearray(col.width)
            for run in storage.layout.column_runs(name):
                p = run.placement
                addr = row_addr(storage, region, run.part_index, row)
                device = (run.slot_index + rotation_of(storage, region, row)) % num_devices
                buf[p.col_offset : p.col_offset + p.length] = storage.rank.device_read(
                    device, addr + p.slot_offset, p.length
                ).tobytes()
            out[name].append(col.decode(bytes(buf)))
    return out


#: Int columns of every width, one key column per slot of part 0.
READ_INT_WIDTHS = {f"w{width}": width for width in range(1, 9)}
#: ``n`` is a normal int column split over two parts; ``z`` a bytes
#: column split over two slots of two parts.
READ_COLUMNS = (*READ_INT_WIDTHS, "n", "z")
READ_BLOCKS = 9  # data blocks: one more than devices, so a rotation repeats


def version_of(region, row):
    """Row ``row`` of ``region`` as the ``(row_id, delta)`` version the
    one-row reader takes (a delta row's ``row_id`` is not consulted)."""
    return (row, -1) if region == Region.DATA else (0, row)


def to_columns(schema, rows, short=True):
    """Row dicts as column arrays: ints as one integer array (unsigned
    when a value needs it), bytes as a NUL-padded ``uint8`` matrix — as
    wide as the longest value with ``short``, else as the column."""
    columns = {}
    for col in schema:
        values = [row[col.name] for row in rows]
        if col.kind == "int":
            wide = any(v >= 1 << 63 for v in values)
            columns[col.name] = np.array(values, dtype=np.uint64 if wide else np.int64)
        else:
            width = max(map(len, values), default=0) if short else col.width
            columns[col.name] = np.array(
                [list(v.ljust(width, b"\x00")) for v in values], dtype=np.uint8
            ).reshape(len(rows), width)
    return columns


def read_world(block_rows, circulant):
    """A storage over a hand-built two-part layout, filled with noise.

    Every byte of the rank is seeded noise, so any row of either region
    decodes to arbitrary values of every width; the first rows of the
    data region are then stored properly, with ``z`` values that end in
    NULs (which ``Column.decode`` keeps)."""
    from repro.core.config import DeviceGeometry
    from repro.core.storage import RankAllocator, TableStorage
    from repro.format.layout import DeviceSlot, FieldPlacement, TablePart, UnifiedLayout
    from repro.format.schema import Column, TableSchema
    from repro.pim.memory import Rank

    schema = TableSchema.of(
        "t",
        [Column(name, width) for name, width in READ_INT_WIDTHS.items()]
        + [Column("n", 6), Column("z", 5, kind="bytes")],
    )
    extra = {0: [FieldPlacement("n", 0, 1, 4)], 1: [FieldPlacement("z", 0, 2, 3)]}
    part0 = TablePart(
        0,
        8,
        tuple(
            DeviceSlot(i, (FieldPlacement(f"w{i + 1}", 0, 0, i + 1), *extra.get(i, ())))
            for i in range(8)
        ),
    )
    tail = {3: (FieldPlacement("n", 4, 1, 2),), 5: (FieldPlacement("z", 3, 0, 2),)}
    part1 = TablePart(1, 4, tuple(DeviceSlot(i, tail.get(i, ())) for i in range(8)))
    layout = UnifiedLayout(schema, (part0, part1), tuple(READ_INT_WIDTHS), 8)
    assert len(layout.column_runs("n")) == 2 and len(layout.column_runs("z")) == 2
    capacity = READ_BLOCKS * block_rows - block_rows // 2
    rank = Rank(DeviceGeometry(), device_bytes=1 << 20)
    storage = TableStorage(
        rank,
        RankAllocator(rank),
        layout,
        capacity,
        2 * block_rows + 3,
        block_rows=block_rows,
        circulant=circulant,
    )
    rng = np.random.default_rng(block_rows + circulant)
    rank.mem[:] = rng.integers(0, 256, size=rank.mem.shape, dtype=np.uint8)
    rows = [
        {**{name: i % (1 << 8 * w) for name, w in READ_INT_WIDTHS.items()},
         "n": i * 0x01_00_00_00_01, "z": bytes([65 + i] * (i % 5))}
        for i in range(12)
    ]
    storage.write_column_rows(Region.DATA, 0, to_columns(schema, rows), len(rows))
    return storage


_READ_WORLDS = {}


@st.composite
def read_cases(draw):
    """(storage, region, row indices, columns): indices unsorted, with
    repeats, possibly empty, biased to the first/last row of a block."""
    key = (draw(st.sampled_from([8, 256, 1024])), draw(st.booleans()))
    if key not in _READ_WORLDS:
        _READ_WORLDS[key] = read_world(*key)
    storage = _READ_WORLDS[key]
    region = draw(st.sampled_from([Region.DATA, Region.DELTA]))
    capacity = storage._region_capacity(region)
    block = storage.block_rows
    edges = [r for b in range(capacity // block + 1) for r in (b * block, b * block + block - 1)]
    row = st.one_of(
        st.integers(0, capacity - 1),
        st.sampled_from([r for r in edges if r < capacity] + [capacity - 1]),
    )
    rows = draw(st.lists(row, max_size=40))
    columns = draw(st.lists(st.sampled_from(READ_COLUMNS), unique=True))
    return storage, region, rows, columns


class TestReadPlanEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(read_cases())
    def test_read_rows_matches_per_run_reads(self, case):
        storage, region, rows, columns = case
        expected = oracle_read_rows(storage, region, rows, columns)
        got = storage.read_rows(region, rows, columns)
        assert list(got) == list(columns)
        for name in columns:
            if name == "z":
                assert got[name].dtype == np.uint8 and got[name].shape == (len(rows), 5)
                assert [value.tobytes() for value in got[name]] == expected[name]
            else:
                assert got[name].dtype == np.uint64 and got[name].shape == (len(rows),)
                assert got[name].tolist() == expected[name]

    @settings(max_examples=100, deadline=None)
    @given(read_cases())
    def test_read_row_matches_per_run_reads(self, case):
        storage, region, rows, columns = case
        expected = oracle_read_rows(storage, region, rows, columns)
        for position, row in enumerate(rows):
            got = storage.read_row(*version_of(region, row), columns)
            assert got == {name: expected[name][position] for name in columns}
            # Values, not views of the rank (a view also compares equal).
            assert {type(value) for value in got.values()} <= {int, bytes}
        if rows:  # all columns by default
            version = version_of(region, rows[0])
            full = storage.read_row(*version)
            every = {name: values[0] for name, values in oracle_read_rows(
                storage, region, rows[:1], READ_COLUMNS
            ).items()}
            assert full == every
            # Overwriting every column of the row leaves what was read as
            # it was; writing the values back restores the shared world.
            schema = storage.layout.schema
            flipped = {
                name: schema.column(name).max_int - value if isinstance(value, int)
                else bytes(255 - byte for byte in value)
                for name, value in full.items()
            }
            storage.write_columns(*version, version[1], flipped)
            try:
                assert storage.read_row(*version) == flipped
                assert full == every
            finally:
                storage.write_columns(*version, version[1], every)

    def test_trailing_nuls_survive(self):
        storage = read_world(8, True)
        got = storage.read_rows(Region.DATA, [2, 0, 5], ["z"])["z"]
        assert [value.tobytes() for value in got] == [
            b"CC\x00\x00\x00", b"\x00" * 5, b"\x00" * 5,
        ]
        assert storage.read_row(2, -1, ["z"]) == {"z": b"CC\x00\x00\x00"}

    @pytest.mark.parametrize("region", [Region.DATA, Region.DELTA])
    @pytest.mark.parametrize("circulant", [True, False])
    def test_out_of_range_message(self, region, circulant):
        storage = read_world(8, circulant)
        capacity = storage._region_capacity(region)
        message = f"{region} row {capacity} out of range [0, {capacity})"
        oracle = capture(lambda: oracle_read_rows(storage, region, [0, capacity, -1], ["w4"]))
        assert oracle == ("err", "MemoryError_", message)
        # Production names the table in front of the oracle's message.
        named = ("err", "MemoryError_", f"table 't': {message}")
        assert capture(lambda: storage.read_rows(region, [0, capacity, -1], ["w4"])) == named
        assert capture(lambda: storage.read_row(*version_of(region, capacity), ["w4"])) == named
        assert capture(lambda: storage.read_rows(region, [3, -1], ["w4"])) == (
            "err", "MemoryError_", f"table 't': {region} row -1 out of range [0, {capacity})",
        )
        assert capture(lambda: storage.read_column_values(region, "w4", capacity + 1)) == named

    def test_a_single_run_short_of_its_column_is_a_layout_error(self):
        """The one-row reader decodes a single-run int column without
        ``Column.decode``'s length check, so its plan checks the run."""
        storage = read_world(8, True)
        run = storage.layout.column_runs("w4")[0]
        short = replace(run, placement=replace(run.placement, length=3))
        storage.layout._runs["w4"] = [short]
        error = ("err", "LayoutError", "table 't': column 'w4' is one run of 3 B, not 4 B")
        assert capture(lambda: storage.read_row(0, -1, ["w4"])) == error
        assert capture(lambda: storage.write_columns(0, -1, -1, {"w4": 1})) == error

    def test_empty_index(self):
        storage = read_world(8, True)
        got = storage.read_rows(Region.DELTA, [], ["w3", "z"])
        assert got["w3"].shape == (0,) and got["w3"].dtype == np.uint64
        assert got["z"].shape == (0, 5)

    def test_unknown_column(self):
        storage = read_world(8, True)
        assert capture(lambda: storage.read_rows(Region.DATA, [0], ["nope"])) == capture(
            lambda: storage.read_row(0, -1, ["nope"])
        )
        assert capture(lambda: storage.read_rows(Region.DATA, [0], ["nope"]))[1] == "SchemaError"


# ----------------------------------------------------------------------
# IVM: column-batch folds vs one dict update per row
# ----------------------------------------------------------------------
class OracleZSet:
    """The dict Z-set: value → non-zero weight, updated one row at a time."""

    def __init__(self):
        self._weights = {}

    def add(self, value, weight=1):
        total = self._weights.get(value, 0) + weight
        if total:
            self._weights[value] = total
        else:
            self._weights.pop(value, None)

    def items(self):
        return self._weights.items()

    def clear(self):
        self._weights.clear()

    def __contains__(self, value):
        return value in self._weights


class OracleQ1View(Q1View):
    def apply(self, table, row, weight):
        number, quantity, amount, delivery_d = row
        if delivery_d <= queries._Q1_DELIVERY_CUTOFF:
            return
        group = self._groups.get(number)
        if group is None:
            group = self._groups[number] = [0, 0, 0]
        group[0] += weight * quantity
        group[1] += weight * amount
        group[2] += weight
        if not (group[0] or group[1] or group[2]):
            del self._groups[number]


class OracleQ6View(Q6View):
    def apply(self, table, row, weight):
        delivery_d, quantity, amount = row
        if (
            queries._Q6_DELIVERY_LO <= delivery_d < queries._Q6_DELIVERY_HI
            and queries._Q6_QTY_LO <= quantity <= queries._Q6_QTY_HI
        ):
            self._revenue += weight * amount


class OracleQ9View(Q9View):
    def __init__(self):
        super().__init__()
        self._items = OracleZSet()

    def apply(self, table, row, weight):
        if table == "item":
            i_id, i_im_id = row
            if i_im_id <= queries._Q9_IM_CUTOFF:
                self._items.add(i_id, weight)
            return
        ol_i_id, ol_amount = row
        line = self._lines.get(ol_i_id)
        if line is None:
            line = self._lines[ol_i_id] = [0, 0]
        line[0] += weight * ol_amount
        line[1] += weight
        if not (line[0] or line[1]):
            del self._lines[ol_i_id]


#: ``OracleView``: the views as they folded before the column batches —
#: ``apply(table, row, weight)`` per row, on decoded Python ints. The
#: answer (``rows()``), the columns and ``clear`` are the production
#: view's; only the fold is the oracle's.
ORACLE_VIEWS = {"Q1": OracleQ1View, "Q6": OracleQ6View, "Q9": OracleQ9View}


def keyed_state(view):
    """A view's internal state; the item multiplicities of either Q9
    representation as ``{i_id: weight}``."""
    state = dict(vars(view))
    if "_items" in state:
        items = state["_items"]
        state["_items"] = (
            dict(items.items())
            if isinstance(items, OracleZSet)
            else {key: weight for key, (weight,) in items.items()}
        )
    return state


def fold_both(views, table, batch):
    """Fold ``batch`` — ``[(row tuple, weight)]`` — row by row into the
    oracle view and as one :class:`ZSet` into the production view."""
    oracle, view = views
    columns = view.columns[table]
    for row, weight in batch:
        oracle.apply(table, row, weight)
    view.apply(
        table,
        ZSet(
            {
                column: np.array([row[i] for row, _ in batch], dtype=np.uint64)
                for i, column in enumerate(columns)
            },
            np.array([weight for _, weight in batch], dtype=np.int64),
        ),
    )
    assert view.rows() == oracle.rows()
    assert keyed_state(view) == keyed_state(oracle)


#: Values around every predicate constant, and the 8-byte extremes.
_DATES = st.sampled_from(
    [
        bound + step
        for bound in (queries._Q1_DELIVERY_CUTOFF, queries._Q6_DELIVERY_LO, queries._Q6_DELIVERY_HI)
        for step in (-1, 0, 1)
    ]
)
_AMOUNTS = st.one_of(st.integers(0, 10_000), st.sampled_from([(1 << 63) - 1, (1 << 64) - 1]))
_WEIGHTS = st.integers(-3, 3)
_VIEW_ROWS = {
    ("Q1", "orderline"): st.tuples(st.integers(0, 4), st.integers(0, 12), _AMOUNTS, _DATES),
    ("Q6", "orderline"): st.tuples(_DATES, st.integers(0, 12), _AMOUNTS),
    ("Q9", "item"): st.tuples(
        st.integers(1, 6), st.sampled_from([0, queries._Q9_IM_CUTOFF, queries._Q9_IM_CUTOFF + 1])
    ),
    ("Q9", "orderline"): st.tuples(st.integers(1, 6), _AMOUNTS),
}


class TestViewFoldEquivalence:
    @pytest.mark.parametrize("name,table", sorted(_VIEW_ROWS))
    def test_random_zsets(self, name, table):
        """Batches with duplicate keys and mixed-sign weights, then an
        empty batch, then every batch retracted — which must annihilate
        every group and leave the empty state."""
        batch = st.lists(st.tuples(_VIEW_ROWS[name, table], _WEIGHTS), max_size=30)

        @settings(max_examples=60, deadline=None)
        @given(st.lists(batch, min_size=1, max_size=4))
        def check(batches):
            views = ORACLE_VIEWS[name](), ORACLE_VIEWS[name].__base__()
            for rows in batches:
                fold_both(views, table, rows)
            fold_both(views, table, [])
            for rows in batches:
                fold_both(views, table, [(row, -weight) for row, weight in rows])
            assert keyed_state(views[1]) == keyed_state(ORACLE_VIEWS[name].__base__())

        check()

    def test_sums_past_int64_are_exact(self):
        """``ol_amount`` = 2⁶³ − 1 on 4 rows: the totals pass 2⁶⁴ and
        must not wrap."""
        big = (1 << 63) - 1
        date = queries._Q6_DELIVERY_LO + 1  # past Q1's cutoff, inside Q6's band
        q1 = OracleQ1View(), Q1View()
        fold_both(q1, "orderline", [((2, 5, big, date), 1)] * 4)
        assert q1[1].rows() == {2: {"sum_qty": 20, "sum_amount": 4 * big, "count": 4}}
        q6 = OracleQ6View(), Q6View()
        fold_both(q6, "orderline", [((date, 5, big), 1)] * 4)
        assert q6[1].rows() == {"revenue": 4 * big}
        q9 = OracleQ9View(), Q9View()
        fold_both(q9, "item", [((3, 0), 1)])
        fold_both(q9, "orderline", [((3, big), 1)] * 4)
        assert q9[1].rows() == {"revenue": 4 * big, "matches": 4}
        for view in (q1[1], q6[1], q9[1]):
            assert all(type(v) is int for v in _leaves(view.rows()))


def _leaves(value):
    if isinstance(value, dict):
        for child in value.values():
            yield from _leaves(child)
    else:
        yield value


def oracle_record_deltas(record, read):
    """The weighted row deltas of one log record, read one at a time."""
    if record.kind == "update":
        yield read(record.row_id, record.prev_ref), -1
        yield read(record.row_id, record.new_ref), +1
    elif record.kind == "insert":
        yield read(record.row_id, record.new_ref), +1
    elif record.kind == "delete":
        yield read(record.row_id, record.prev_ref), -1
    else:
        raise QueryError(f"unknown update-log record kind: {record.kind!r}")


class OracleIVMManager(IVMManager):
    """``refresh`` / ``_recompute`` as they ran before the column batches:
    one row read per touched version or set visibility bit, one
    ``OracleView.apply`` per row, the charges accumulated row by row."""

    def register(self, name):
        if name in self.views:
            return self.views[name]
        view = self.views[name] = ORACLE_VIEWS[name]()
        for table, columns in view.columns.items():
            schema = self.engine.db.table(table).schema
            self._widths[(name, table)] = sum(schema.column(c).width for c in columns)
        self._stats[name] = ViewStats()
        self._recompute(name, self.engine.db.oracle.read_timestamp(), timing=None)
        return view

    def _reader(self, table, columns):
        storage = self.engine.db.table(table).storage

        def read(row_id, delta):
            region, row = version_slot(row_id, delta)
            values = oracle_read_rows(storage, region, [row], columns)
            return tuple(values[column][0] for column in columns)

        return read

    def refresh(self, name, ts, timing):
        if self._dirty[name]:
            self._recompute(name, ts, timing)
            return
        last = self._view_ts[name]
        if ts == last:
            return
        view = self.views[name]
        stats = self._stats[name]
        nbytes = records = folded = 0
        for table, columns in view.columns.items():
            read = self._reader(table, columns)
            width = self._widths[(name, table)]
            for record in window_records(self.engine.db.table(table).mvcc.log_between(last, ts)):
                records += 1
                nbytes += 16
                for row, weight in oracle_record_deltas(record, read):
                    view.apply(table, row, weight)
                    nbytes += width
                    folded += 1
        self._view_ts[name] = ts
        stats.applied_records += records
        stats.folded_rows += folded
        timing.add_cpu_bytes(nbytes, self.engine.olap.config.total_cpu_bandwidth)
        timing.cpu_time += folded * _APPLY_NS_PER_DELTA

    def _recompute(self, name, ts, timing):
        view = self.views[name]
        view.clear()
        nbytes = folded = 0
        for table, columns in view.columns.items():
            read = self._reader(table, columns)
            mvcc = self.engine.db.table(table).mvcc
            width = self._widths[(name, table)]
            bits = mvcc.visible_refs_at(ts, mvcc.delta.high_water_rows)
            for region, region_bits in zip((Region.DATA, Region.DELTA), bits):
                for index in np.nonzero(region_bits)[0]:
                    view.apply(table, read(*version_of(region, int(index))), 1)
                    nbytes += width
                    folded += 1
        self._view_ts[name] = ts
        self._dirty[name] = False
        self._stats[name].recomputes += 1
        self._stats[name].folded_rows += folded
        if timing is not None:
            timing.add_cpu_bytes(nbytes, self.engine.olap.config.total_cpu_bandwidth)
            timing.cpu_time += folded * _APPLY_NS_PER_DELTA


def ivm_histories(kind, seed):
    """Two identical engines and a step function that advances both by
    the same random history: the toy build of ``tests/test_ivm.py``
    (updates, inserts and deletes on both view tables) or the CH-bench
    build under the TPC-C mix (3-, 6- and 8-byte view columns)."""
    from repro.core.engine import PushTapEngine
    from tests.test_ivm import build_toy_engine, run_random_ops

    if kind == "toy":
        rngs = random.Random(seed), random.Random(seed)
        worlds = [(build_toy_engine(rng), rng) for rng in rngs]

        def step(count):
            for (engine, live), rng in worlds:
                run_random_ops(engine, rng, live, count)

        return [engine for (engine, _), _ in worlds], step
    engines = [PushTapEngine.build(scale=2e-5, seed=seed) for _ in range(2)]
    drivers = [engine.make_driver(seed=seed + 1) for engine in engines]

    def step(count):
        for engine, driver in zip(engines, drivers):
            engine.run_transactions(count, driver)

    return engines, step


class TestIVMManagerEquivalence:
    @pytest.mark.parametrize("kind,seed", [("toy", 3), ("toy", 8), ("chbench", 3)])
    def test_refresh_and_recompute_field_by_field(self, kind, seed):
        """A random history with a defragmentation mid-way, so both the
        delta fold and the resync run: every answer's rows and
        ``QueryTiming`` (``==``, not approx), ``ViewStats`` and
        ``report()`` against the row-at-a-time manager."""
        import dataclasses

        (engine, reference), step = ivm_histories(kind, seed)
        ivm = engine.enable_ivm()
        reference.ivm = OracleIVMManager(reference)
        oracle = reference.enable_ivm()
        paths = set()
        for round_index in range(6):
            step(25)
            if round_index == 3:
                engine.defragment()
                reference.defragment()
                step(10)
            ts = engine.db.oracle.read_timestamp()
            assert ts == reference.db.oracle.read_timestamp()
            for name in ("Q1", "Q6", "Q9"):
                paths.add("recompute" if ivm._dirty[name] else "refresh")
                got = ivm.answer(name, ts)
                expected = oracle.answer(name, ts)
                assert got.rows == expected.rows
                assert dataclasses.asdict(got.timing) == dataclasses.asdict(expected.timing)
                assert got.timing.total_time == expected.timing.total_time
                assert keyed_state(ivm.views[name]) == keyed_state(oracle.views[name])
            assert ivm._stats == oracle._stats
            assert json.dumps(ivm.report(), sort_keys=True) == json.dumps(
                oracle.report(), sort_keys=True
            )
        assert paths == {"refresh", "recompute"}


# ----------------------------------------------------------------------
# Serve: the batched OLAP completion loop, pinned
# ----------------------------------------------------------------------
class TestServeBatchedEquivalence:
    @pytest.mark.parametrize(
        "pin", ["serve_state.open", "serve_state.closed"], ids=["open", "closed"]
    )
    def test_serve_run_identical(self, pin):
        """Full report plus every telemetry sample and span of a batched
        serve run — SLO bookkeeping, request spans, and (closed loop) the
        think draws that start from each query's own completion time —
        pinned at 94e14a0, where the per-request completion loop and the
        (since deleted) batch-settling path agreed."""
        assert PINS[pin]() == committed("pins")[pin]


# ----------------------------------------------------------------------
# Batch driver: the single-engine interval loop the one-shard cluster
# replaced (tests/test_cluster.py holds ClusterWorkload against it)
# ----------------------------------------------------------------------
@dataclass
class OracleWorkloadReport:
    """Throughput and latency summary of one mixed run.

    Per-query latencies are kept in telemetry histograms (one per query
    type), so the report exposes quantiles as well as the historical
    list/mean API.
    """

    transactions: int = 0
    aborted: int = 0
    queries: int = 0
    oltp_time: float = 0.0
    olap_time: float = 0.0
    defrag_time: float = 0.0
    #: The remote-warehouse scaling the driver ran with (1.0 = the
    #: TPC-C spec rates) plus its observed remote-traffic counters —
    #: how many payments/new orders actually crossed warehouses.
    remote_fraction: float = 1.0
    payments: int = 0
    remote_payments: int = 0
    new_orders: int = 0
    remote_new_orders: int = 0
    order_lines: int = 0
    remote_order_lines: int = 0
    query_histograms: Dict[str, Histogram] = field(default_factory=dict)
    #: End-to-end latency of every executed transaction (ns). In batch
    #: mode there is no queue, so end-to-end equals execution time — the
    #: serve layer records the same metric with queue wait included,
    #: which makes batch-mode and serve-mode latency directly comparable.
    txn_histogram: Histogram = field(
        default_factory=lambda: Histogram("workload.txn.latency_ns")
    )

    @property
    def simulated_time(self) -> float:
        """Total simulated wall time (serial engine) in ns."""
        return self.oltp_time + self.olap_time + self.defrag_time

    @property
    def committed(self) -> int:
        """Transactions that committed (executed minus aborted)."""
        return self.transactions - self.aborted

    @property
    def oltp_tpmc(self) -> float:
        """Committed transactions per simulated minute.

        Aborted transactions consume time but do not count — the
        standard tpmC definition (an abort storm must not *raise*
        reported throughput just because aborts are cheap).
        """
        if self.simulated_time == 0:
            return 0.0
        return self.committed / self.simulated_time * S * 60.0

    @property
    def olap_qphh(self) -> float:
        """Queries per simulated hour."""
        if self.simulated_time == 0:
            return 0.0
        return self.queries / self.simulated_time * S * 3600.0

    @property
    def query_latencies(self) -> Dict[str, List[float]]:
        """Per-query-type latency samples (ns), in observation order."""
        return {name: h.samples for name, h in self.query_histograms.items()}

    def observe_query(self, name: str, latency: float) -> None:
        """Record one query latency sample."""
        self.query_histogram(name).observe(latency)

    def query_histogram(self, name: str) -> Histogram:
        """The latency histogram of one query type (empty if never run).

        The histogram is registered on first access, so observations made
        through the returned handle are retained by the report rather
        than silently dropped.
        """
        hist = self.query_histograms.get(name)
        if hist is None:
            hist = self.query_histograms[name] = Histogram(
                f"workload.query.{name}.latency_ns"
            )
        return hist

    def observe_txn(self, latency: float) -> None:
        """Record one transaction's end-to-end latency sample (ns)."""
        self.txn_histogram.observe(latency)
        tel = telemetry.active()
        if tel.enabled:
            tel.histogram("workload.txn.latency_ns").observe(latency)

    def mean_query_latency(self, name: str) -> float:
        """Average simulated latency of one query type."""
        return self.query_histogram(name).mean


class OracleMixedWorkload:
    """Drives an engine with a transaction/query mix.

    ``txns_per_query`` sets the interleaving (the paper's query scheduler
    issues analytical queries between transaction batches); ``queries``
    cycles through the named analytical queries.
    """

    def __init__(
        self,
        engine: PushTapEngine,
        txns_per_query: int = 50,
        queries: Sequence[str] = ("Q1", "Q6", "Q9"),
        seed: int = 11,
        payment_fraction: float = 0.5,
        delivery_fraction: float = 0.0,
        remote_fraction: float = 1.0,
        invariant_checker=None,
    ) -> None:
        if txns_per_query < 0:
            raise ConfigError("txns_per_query must be non-negative")
        if not queries:
            raise ConfigError("at least one analytical query is required")
        self.engine = engine
        self.txns_per_query = txns_per_query
        self.queries = list(queries)
        # The mix fractions go through make_driver → the TPCCDriver
        # constructor, so its validation applies (an invalid
        # payment/delivery/remote mix raises instead of being assigned
        # blindly).
        self.driver = engine.make_driver(
            seed=seed,
            payment_fraction=payment_fraction,
            delivery_fraction=delivery_fraction,
            remote_fraction=remote_fraction,
        )
        #: Optional :class:`~repro.faults.invariants.InvariantChecker`,
        #: consulted after every injected fault and at interval ends.
        self.invariant_checker = invariant_checker
        self._query_cursor = 0

    def _maybe_check(self, force: bool = False) -> None:
        """Run the invariant checker at a safe point.

        Checks run when fault injection reports pending (injected) faults
        since the last check, or unconditionally with ``force`` (interval
        boundaries).
        """
        checker = self.invariant_checker
        if checker is None:
            return
        pending = faults.active().take_pending_checks()
        if pending or force:
            checker.check()

    def run(self, num_queries: int) -> OracleWorkloadReport:
        """Run ``num_queries`` query intervals; returns the report."""
        report = OracleWorkloadReport()
        engine = self.engine
        tel = telemetry.active()
        defrag_before = engine.stats.defrag_time
        for interval in range(num_queries):
            name = self.queries[self._query_cursor % len(self.queries)]
            self._query_cursor += 1
            with tel.span("workload.interval", {"interval": interval, "query": name}):
                for _ in range(self.txns_per_query):
                    txn = self.driver.next_transaction()
                    result = engine.execute_transaction(txn)
                    report.transactions += 1
                    if result.aborted:
                        report.aborted += 1
                        self.driver.note_abort(txn)
                    report.oltp_time += result.total_time
                    report.observe_txn(result.total_time)
                    self._maybe_check()
                query = engine.query(name)
                report.queries += 1
                report.olap_time += query.total_time
                report.observe_query(name, query.total_time)
                self._maybe_check(force=True)
        report.defrag_time = engine.stats.defrag_time - defrag_before
        driver = self.driver
        report.remote_fraction = driver.remote_fraction
        report.payments = driver.payments
        report.remote_payments = driver.remote_payments
        report.new_orders = driver.new_orders
        report.remote_new_orders = driver.remote_new_orders
        report.order_lines = driver.order_lines
        report.remote_order_lines = driver.remote_order_lines
        if tel.enabled:
            tel.counter("workload.intervals").inc(num_queries)
            tel.gauge("workload.oltp_tpmc").set(report.oltp_tpmc)
            tel.gauge("workload.olap_qphh").set(report.olap_qphh)
        return report


# ----------------------------------------------------------------------
# OLAP join: the semi-join over staged keys vs the dict-of-sets loop
# ----------------------------------------------------------------------
class RowSlice(NamedTuple):
    """The rows of one scanned block, as the per-block oracles key their
    results: region, first row within it, row count."""

    region: str
    base_row: int
    num_rows: int


def in_region_order(per_slice, dtype):
    """Per-block arrays as one scan array: the data blocks, then the delta
    blocks, each region by first row — the operators' harvest order."""
    order = sorted(per_slice, key=lambda s: (s.region != "data", s.base_row))
    parts = [np.asarray(per_slice[s], dtype=dtype) for s in order]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def scan_side(name, hashes, values):
    """A hash scan as ``hash_join`` reads it: arrays over the scan's rows."""
    storage = SimpleNamespace(layout=SimpleNamespace(schema=SimpleNamespace(name=name)))
    return SimpleNamespace(hashes=hashes, values=values, hash_function=0,
                           column=f"{name}_key", storage=storage)


def oracle_hash_join(build, probe, build_masks=None, num_buckets=64):
    """The three per-element passes ``hash_join`` was before it became
    array code: bucketed dict of build key sets, probe pass, reverse pass.
    Returns the five compared fields."""
    from repro.errors import QueryError

    build_keys = {}
    cpu_bytes = 0
    pim_elements = 0
    for row_slice, hashes in build.hashes.items():
        values = build.values[row_slice]
        cpu_bytes += hashes.nbytes
        mask = build_masks.get(row_slice) if build_masks is not None else None
        if build_masks is not None and mask is None:
            raise QueryError(f"build mask missing for rows {row_slice}")
        for i, (h, v) in enumerate(zip(hashes, values)):
            if h == 0 or (mask is not None and not mask[i]):
                continue
            build_keys.setdefault(int(h) % num_buckets, set()).add(int(v))
            pim_elements += 1
    probe_masks = {}
    matched_values = set()
    matches = 0
    for row_slice, hashes in probe.hashes.items():
        values = probe.values[row_slice]
        cpu_bytes += hashes.nbytes
        mask = np.zeros(len(hashes), dtype=bool)
        for i, (h, v) in enumerate(zip(hashes, values)):
            if h == 0:
                continue
            pim_elements += 1
            bucket = build_keys.get(int(h) % num_buckets)
            if bucket is not None and int(v) in bucket:
                mask[i] = True
                matches += 1
                matched_values.add(int(v))
        probe_masks[row_slice] = mask
    build_masks_out = {}
    for row_slice, hashes in build.hashes.items():
        values = build.values[row_slice]
        in_mask = build_masks.get(row_slice) if build_masks is not None else None
        out = np.zeros(len(hashes), dtype=bool)
        for i, (h, v) in enumerate(zip(hashes, values)):
            if h == 0 or (in_mask is not None and not in_mask[i]):
                continue
            out[i] = int(v) in matched_values
        build_masks_out[row_slice] = out
    return probe_masks, build_masks_out, matches, cpu_bytes, pim_elements


def join_fields(result):
    return (
        result.probe_mask,
        result.build_mask_out,
        result.matches,
        result.cpu_bytes,
        result.pim_elements,
    )


def oracle_join_fields(fields):
    """The oracle's five fields with its per-block masks as scan arrays."""
    probe_masks, build_masks_out, *counts = fields
    return (in_region_order(probe_masks, bool), in_region_order(build_masks_out, bool), *counts)


def comparable(value):
    """Arrays and dicts of arrays as plain lists, for ``==``."""
    if isinstance(value, dict):
        return [(key, comparable(v)) for key, v in value.items()]
    if isinstance(value, (tuple, list)):
        return [comparable(v) for v in value]
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.tolist())
    return value


@st.composite
def join_sides(draw):
    """Two hand-built hash scans and an optional build mask.

    Keys come from a small domain (duplicates on either side) and hash
    through ``key % 5 + 1`` (forced collisions: many keys, five hashes);
    hidden rows carry hash 0; a side may have no slices or empty ones. A
    build mask may lack one non-empty block's rows.
    """

    def side(region):
        lengths = draw(st.lists(st.integers(0, 9), min_size=0, max_size=4))
        hashes, values = {}, {}
        base = 0
        for length in lengths:
            keys = np.array(
                draw(st.lists(st.integers(0, 11), min_size=length, max_size=length)),
                dtype=np.uint64,
            )
            hidden = np.array(
                draw(st.lists(st.booleans(), min_size=length, max_size=length)),
                dtype=bool,
            )
            row_slice = RowSlice(region, base, length)
            base += 16
            values[row_slice] = keys
            hashes[row_slice] = np.where(hidden, 0, keys % 5 + 1).astype(np.uint32)
        return SimpleNamespace(hashes=hashes, values=values)

    build, probe = side("data"), side("delta")
    masks = None
    if draw(st.booleans()):
        masks = {
            row_slice: np.array(
                draw(st.lists(st.booleans(), min_size=len(h), max_size=len(h))),
                dtype=bool,
            )
            for row_slice, h in build.hashes.items()
        }
        rows = sorted((s for s in masks if s.num_rows), key=lambda s: s.base_row)
        if rows and draw(st.integers(0, 4)) == 0:
            del masks[draw(st.sampled_from(rows))]
    return build, probe, masks


class TestHashJoinEquivalence:
    @settings(max_examples=250, deadline=None)
    @given(join_sides())
    def test_semi_join_matches_dict_of_sets(self, sides):
        """The join over scan arrays equals the per-block dict-of-sets
        loop; a build mask short of a block's rows raises, naming the
        build side's table."""
        from repro.olap.plan import hash_join

        build, probe, masks = sides
        want = capture(lambda: comparable(oracle_join_fields(oracle_hash_join(build, probe, masks))))
        got = capture(lambda: comparable(join_fields(hash_join(
            scan_side("b", in_region_order(build.hashes, np.uint32),
                      in_region_order(build.values, np.uint64)),
            scan_side("p", in_region_order(probe.hashes, np.uint32),
                      in_region_order(probe.values, np.uint64)),
            None if masks is None else in_region_order(masks, bool),
        ))))
        if want[0] == "err":
            assert want[1] == "QueryError" and want[2].startswith("build mask missing for rows")
            assert got[:2] == ("err", "QueryError")
            assert got[2].startswith("table 'b': ") and "build-mask rows for a scan of" in got[2]
        else:
            assert got == want

    def test_collision_and_duplicates_by_hand(self):
        """Keys 1 and 6 share hash 2: only the staged key decides; a key
        duplicated ten times on the build side matches its probe row once."""
        from repro.olap.plan import hash_join

        s0, s1 = RowSlice("data", 0, 12), RowSlice("data", 16, 3)
        build_keys = np.array([6] * 10 + [3, 4], dtype=np.uint64)
        probe_keys = np.array([1, 6, 4], dtype=np.uint64)
        build_hashes = (build_keys % 5 + 1).astype(np.uint32)
        probe_hashes = (probe_keys % 5 + 1).astype(np.uint32)
        result = hash_join(
            scan_side("b", build_hashes, build_keys), scan_side("p", probe_hashes, probe_keys)
        )
        assert result.probe_mask.tolist() == [False, True, True]
        assert result.matches == 2  # probe rows, not the 11 join pairs
        assert result.build_mask_out.tolist() == [True] * 10 + [False, True]
        assert result.matched_build_rows == 11
        oracle = oracle_hash_join(
            SimpleNamespace(hashes={s0: build_hashes}, values={s0: build_keys}),
            SimpleNamespace(hashes={s1: probe_hashes}, values={s1: probe_keys}),
        )
        assert comparable(join_fields(result)) == comparable(oracle_join_fields(oracle))


# ----------------------------------------------------------------------
# OLAP operators: rank-wide phases vs the per-unit, per-block walk
# ----------------------------------------------------------------------
#: Scanned column → width: the native widths and two that have no dtype.
SCAN_WIDTHS = {"a": 1, "b": 2, "c": 4, "d": 8, "e": 6, "f": 3}


def scan_world(block_rows, capacity, wram_bytes, seed=5):
    """An engine over one all-key-column table whose rank and WRAMs hold
    seeded noise: column bytes, bitmaps and stale scratchpad contents are
    all arbitrary, and two worlds of one seed are byte-identical."""
    import dataclasses

    from repro.core.config import PIMUnitConfig, dimm_system
    from repro.core.engine import PushTapEngine
    from repro.format.schema import Column, TableSchema

    schema = TableSchema.of("t", tuple(Column(n, w) for n, w in SCAN_WIDTHS.items()))
    engine = PushTapEngine.build_custom(
        {"t": schema},
        {"t": tuple(SCAN_WIDTHS)},
        {"t": []},
        config=dataclasses.replace(dimm_system(), pim=PIMUnitConfig(wram_bytes=wram_bytes)),
        block_rows=block_rows,
        extra_rows=capacity,
        updates_per_txn_estimate=1,
    )
    rng = np.random.default_rng(seed)
    engine.rank.mem[:] = rng.integers(0, 256, size=engine.rank.mem.shape, dtype=np.uint8)
    engine.units.wram[:] = rng.integers(0, 256, size=engine.units.wram.shape, dtype=np.uint8)
    return engine


#: block_rows → (data capacity, WRAM bytes): sized so units get more than
#: one slot and the scan more than one phase (see ``test_shapes_covered``).
WORLDS = {8: (1200, 64 * 1024), 256: (6000, 32 * 1024), 1024: (12000, 64 * 1024)}


def world_rows(block_rows):
    """Data + delta regions, each ending in a partial block."""
    from repro.olap.operators import RegionRows

    capacity, _ = WORLDS[block_rows]
    return RegionRows(
        capacity - block_rows // 2 - 1, 3 * block_rows + block_rows // 2 + 1
    )


class OraclePhase:
    """The operators' phases as they ran before they went rank-wide: each
    unit walks its own queue, one ``load_strided`` + ``device_read`` +
    ``op_*`` per block, and harvests per block, keyed by :class:`RowSlice`.
    A ``ChunkedOperation`` in the current call shape, so the executor can
    run it side by side with the real operator.
    """

    RESULT_BYTES = 4096
    DICT_CAPACITY = 256

    def __init__(self, kind, storage, units, column, rows, condition=None,
                 indices=None, num_groups=0, hash_function=0):
        from repro.mvcc.metadata import Region
        from repro.pim.requests import LaunchRequest, OpType

        self.kind, self.storage, self.units, self.rows = kind, storage, units, rows
        self.condition, self.indices = condition, indices
        self.num_groups, self.hash_function = num_groups, hash_function
        self.width = storage.layout.schema.column(column).width
        self.bytes_scanned = self.cpu_transfer_bytes = 0
        self.masks, self.block_dicts, self.block_indices = {}, {}, {}
        self.partials, self.hashes, self.values = {}, {}, {}
        self.scans = [
            (scan, RowSlice(region, scan.base_row, scan.num_rows))
            for region, count in ((Region.DATA, rows.data_rows), (Region.DELTA, rows.delta_rows))
            if count > 0
            for scan in storage.column_scan_plan(column, region, count)
        ]
        self.queues = {}
        for i, (scan, _) in enumerate(self.scans):
            self.queues.setdefault((scan.device, scan.bank), []).append(i)
        block = storage.block_rows
        self.aux_bytes = {"group": self.DICT_CAPACITY * self.width, "aggregation": block * 2}.get(kind, 0)
        self.slot_bytes = block // 8 + block * self.width + self.aux_bytes + self.RESULT_BYTES
        if kind == "aggregation":
            self.slot_bytes += num_groups * 8
        budget = next(iter(units.values())).config.load_buffer_bytes
        self.blocks_per_phase = max(1, budget // self.slot_bytes)
        self.request = LaunchRequest(
            {"filter": OpType.FILTER, "group": OpType.GROUP,
             "aggregation": OpType.AGGREGATION, "hash": OpType.HASH}[kind],
            {"data_width": self.width},
        )
        self.ls = LaunchRequest(OpType.LS, {"op0_len": 64})
        self.work_before = unit_work(self.participating_units())

    def work(self):
        """The units' counter deltas since the operation was made."""
        now = unit_work(self.participating_units())
        return tuple(a - b for a, b in zip(now, self.work_before))

    def num_chunks(self):
        longest = max(len(q) for q in self.queues.values())
        return -(-longest // self.blocks_per_phase)

    def participating_units(self):
        return [self.units[key] for key in sorted(self.queues)]

    def load_request(self, chunk):
        return self.ls

    def compute_request(self, chunk):
        return self.request

    def offsets(self, slot):
        block = self.storage.block_rows
        bitmap = slot * self.slot_bytes
        data = bitmap + block // 8
        aux = data + block * self.width
        return {"bitmap": bitmap, "data": data, "aux": aux, "result": aux + self.aux_bytes}

    def batch(self, unit, chunk):
        queue = self.queues[(unit.bank.device.index, unit.bank.index)]
        start = chunk * self.blocks_per_phase
        return enumerate(queue[start : start + self.blocks_per_phase])

    def load(self, chunk):
        return [self.load_unit(unit, chunk) for unit in self.participating_units()]

    def compute(self, chunk):
        return [self.compute_unit(unit, chunk) for unit in self.participating_units()]

    def load_unit(self, unit, chunk):
        from repro.pim.timing import stream_time

        time = 0.0
        for slot, scan_index in self.batch(unit, chunk):
            scan, row_slice = self.scans[scan_index]
            offsets = self.offsets(slot)
            time += unit.load_strided(
                scan.dram_addr - unit.bank.start, scan.num_rows * self.width,
                scan.stride, scan.chunk, offsets["data"],
            )
            nbytes = self.storage.block_rows // 8
            addr = self.storage.bitmap_block_slice_addr(row_slice.region, scan.block)
            unit.wram_write(
                offsets["bitmap"],
                self.storage.rank.device_read(unit.bank.device.index, addr, nbytes),
            )
            bitmap_time = stream_time(
                nbytes, unit.timings, unit.geometry, unit.config.access_granularity
            )
            unit.stats.dram_bytes_read += nbytes
            unit.stats.load_time += bitmap_time
            time += bitmap_time
            if self.kind == "aggregation":
                start = row_slice.base_row + (row_slice.region != "data") * self.rows.data_rows
                arr = np.asarray(self.indices[start : start + scan.num_rows], dtype=np.uint16)
                unit.wram_write(offsets["aux"], arr.view(np.uint8))
                self.cpu_transfer_bytes += arr.nbytes
                aux_time = stream_time(
                    arr.nbytes, unit.timings, unit.geometry, unit.config.access_granularity
                )
                unit.stats.load_time += aux_time
                time += aux_time
            self.bytes_scanned += scan.num_rows * self.width + nbytes
        return time

    def compute_unit(self, unit, chunk):
        time = 0.0
        for slot, scan_index in self.batch(unit, chunk):
            scan, row_slice = self.scans[scan_index]
            time += getattr(self, "compute_" + self.kind)(
                unit, scan.num_rows, row_slice, self.offsets(slot)
            )
        return time

    def compute_filter(self, unit, count, row_slice, o):
        time = unit.op_filter(o["bitmap"], o["data"], o["result"], self.width, self.condition, count)
        packed = unit.wram_read(o["result"], -(-count // 8))
        self.masks[row_slice] = np.unpackbits(packed, bitorder="little")[:count].astype(bool)
        self.cpu_transfer_bytes += len(packed)
        return time

    def compute_group(self, unit, count, row_slice, o):
        time = unit.op_group(
            o["bitmap"], o["data"], o["aux"], o["result"], self.width, count,
            dict_capacity=self.DICT_CAPACITY,
        )
        indices = unit.wram_read(o["result"], count * 2).view(np.uint16)
        visible = indices != 0xFFFF
        num_groups = int(indices[visible].max()) + 1 if visible.any() else 0
        self.block_dicts[row_slice] = bytes_to_uints(
            unit.wram_read(o["aux"], num_groups * self.width), self.width
        )
        self.block_indices[row_slice] = indices.copy()
        self.cpu_transfer_bytes += num_groups * self.width + count * 2
        return time

    def compute_aggregation(self, unit, count, row_slice, o):
        unit.wram_write(o["result"], np.zeros(self.num_groups * 8, dtype=np.uint8))
        time = unit.op_aggregation(
            o["bitmap"], o["data"], o["aux"], o["result"], self.width, count, self.num_groups
        )
        partial = unit.wram_read(o["result"], self.num_groups * 8).view(np.uint64)
        self.partials[row_slice] = partial.copy()
        self.cpu_transfer_bytes += partial.nbytes
        return time

    def compute_hash(self, unit, count, row_slice, o):
        time = unit.op_hash(o["bitmap"], o["data"], o["result"], self.width, count, self.hash_function)
        hashes = unit.wram_read(o["result"], count * 4).view(np.uint32)
        self.hashes[row_slice] = hashes.copy()
        self.values[row_slice] = bytes_to_uints(
            unit.wram_read(o["data"], count * self.width), self.width
        )
        self.cpu_transfer_bytes += hashes.nbytes
        return time


    def harvest(self):
        """The per-block results as the operators' scan arrays: each
        concatenated in region order, the partial sums added up."""
        order = sorted(self.block_dicts, key=lambda s: (s.region != "data", s.base_row))
        out = {
            "filter": lambda: {"mask": in_region_order(self.masks, bool)},
            "group": lambda: {
                "indices": in_region_order(self.block_indices, np.uint16),
                "dictionaries": [self.block_dicts[s] for s in order],
            },
            "aggregation": lambda: {
                "total": sum(self.partials.values(), np.zeros(self.num_groups, np.uint64))
            },
            "hash": lambda: {
                "hashes": in_region_order(self.hashes, np.uint32),
                "values": in_region_order(self.values, np.uint64),
            },
        }[self.kind]()
        return {**out, "cpu_transfer_bytes": self.cpu_transfer_bytes,
                "bytes_scanned": self.bytes_scanned}


def scan_blocks(op):
    """``(first row, rows)`` of each block of ``op``'s scan arrays, in
    region order."""
    block, rows = op.storage.block_rows, op.rows
    return [
        (offset + base, min(block, count - base))
        for offset, count in ((0, rows.data_rows), (rows.data_rows, rows.delta_rows))
        for base in range(0, count, block)
    ]


def block_dictionaries(op):
    """A group scan's dictionary cut back into its blocks' dictionaries,
    in region order: a block's keys start at its rows' ``starts`` and
    number one more than its largest local index."""
    out = []
    for first, count in scan_blocks(op):
        starts, local = op.starts[first : first + count], op.indices[first : first + count]
        assert (starts == starts[0]).all()
        visible = local[local != 0xFFFF]
        out.append(op.dictionary[starts[0] : starts[0] + (int(visible.max()) + 1 if visible.size else 0)])
    assert sum(map(len, out)) == len(op.dictionary)
    return out


def harvest(op):
    """Everything an operator hands the CPU, as comparable values: the
    scan arrays, and a group scan's dictionaries block by block."""
    from repro.olap import operators as ops

    if isinstance(op, OraclePhase):
        out = op.harvest()
    else:
        out = {
            ops.FilterOperation: lambda: {"mask": op.mask},
            ops.GroupOperation: lambda: {
                "indices": op.indices, "dictionaries": block_dictionaries(op)
            },
            ops.AggregationOperation: lambda: {"total": op.total},
            ops.HashOperation: lambda: {"hashes": op.hashes, "values": op.values},
        }[type(op)]()
        out.update(cpu_transfer_bytes=op.cpu_transfer_bytes, bytes_scanned=op.bytes_scanned)
    return {name: comparable(value) for name, value in out.items()}


def unit_stats(units):
    return [
        (key, u.stats.dram_bytes_read, u.stats.dram_bytes_written,
         u.stats.elements_processed, u.stats.load_time, u.stats.compute_time)
        for key, u in sorted(units.items())
    ]


def operator_pair(kind, block_rows, column):
    """The real operator and its oracle, each in its own identical world."""
    from repro.olap import operators as ops
    from repro.pim.pim_unit import Condition

    capacity, wram_bytes = WORLDS[block_rows]
    rows = world_rows(block_rows)
    real_world = scan_world(block_rows, capacity, wram_bytes)
    oracle_world = scan_world(block_rows, capacity, wram_bytes)
    params = {}
    if kind == "filter":
        params["condition"] = Condition("lt", 1 << min(8 * SCAN_WIDTHS[column] - 1, 55))
    if kind == "hash":
        params["hash_function"] = 1
    if kind == "aggregation":
        # Group ids as a CPU would supply them, some rows filtered out.
        rng = np.random.default_rng(11)
        count = rows.data_rows + rows.delta_rows
        params["indices"] = np.where(
            rng.random(count) < 0.2, 0xFFFF, rng.integers(0, 5, size=count)
        ).astype(np.uint16)
        params["num_groups"] = 5
    storage = real_world.table("t").storage
    if kind == "filter":
        real = ops.FilterOperation(storage, real_world.units, column, params["condition"], rows)
    elif kind == "group":
        real = ops.GroupOperation(storage, real_world.units, column, rows)
    elif kind == "aggregation":
        real = ops.AggregationOperation(
            storage, real_world.units, column, rows, params["indices"], 5
        )
    else:
        real = ops.HashOperation(storage, real_world.units, column, rows, hash_function=1)
    oracle = OraclePhase(
        kind, oracle_world.table("t").storage, oracle_world.units, column, rows, **params
    )
    return real_world, real, oracle_world, oracle


#: Every operator at every block size; columns chosen so that each width
#: (1/2/4/8 and the dtype-less 6 and 3) meets each operator at least once
#: — except group, whose 256-key dictionary only fits the 1-byte column.
PHASE_CASES = [
    (kind, block_rows, column)
    for block_rows, columns in ((8, "adef"), (256, "bcef"), (1024, "abcd"))
    for kind in ("filter", "aggregation", "hash")
    for column in columns
] + [("group", block_rows, "a") for block_rows in WORLDS]


class TestRankWidePhaseEquivalence:
    def test_shapes_covered(self):
        """The worlds exercise what they claim: several slots per unit,
        several phases, partial blocks batched apart from full ones, and
        phases that hold both data and delta blocks."""
        from repro.olap.operators import FilterOperation
        from repro.pim.pim_unit import Condition

        seen_batches, mixed = set(), set()
        for block_rows, (capacity, wram_bytes) in WORLDS.items():
            world = scan_world(block_rows, capacity, wram_bytes)
            for column in SCAN_WIDTHS:
                op = FilterOperation(
                    world.table("t").storage, world.units, column,
                    Condition("eq", 0), world_rows(block_rows),
                )
                blocks = sum(len(b.base) for phase in op._plan.batches for b in phase)
                assert blocks > len(op.participating_units())  # > 1 slot per unit
                seen_batches.update(len(phase) for phase in op._plan.batches)
                if block_rows == 8 or column == "d":
                    assert op.num_chunks() > 1
                for phase in op._plan.batches:
                    if len({d for b in phase for d in b.delta.tolist()}) == 2:
                        mixed.add(block_rows)
        assert {1, 2, 3} <= seen_batches
        assert mixed == set(WORLDS)

    @pytest.mark.parametrize("kind,block_rows,column", PHASE_CASES)
    def test_phase_by_phase(self, kind, block_rows, column):
        """Per phase: each unit's time (exact), then every WRAM byte, each
        unit's counters and everything harvested."""
        real_world, real, oracle_world, oracle = operator_pair(kind, block_rows, column)
        assert real.num_chunks() == oracle.num_chunks()
        assert [u.unit_id for u in real.participating_units()] == [
            u.unit_id for u in oracle.participating_units()
        ]
        for chunk in range(real.num_chunks()):
            assert real.load(chunk) == oracle.load(chunk)
            np.testing.assert_array_equal(real_world.units.wram, oracle_world.units.wram)
            assert real.compute(chunk) == oracle.compute(chunk)
            np.testing.assert_array_equal(real_world.units.wram, oracle_world.units.wram)
            assert unit_stats(real_world.units) == unit_stats(oracle_world.units)
        assert harvest(real) == harvest(oracle)
        # Each unit's own view is the matrix row the phases wrote.
        for unit in real_world.units.values():
            assert np.shares_memory(unit.wram, real_world.units.wram[unit.unit_id])

    @pytest.mark.parametrize("kind,block_rows,column", PHASE_CASES[::4])
    def test_execution_result_field_by_field(self, kind, block_rows, column):
        import dataclasses

        real_world, real, oracle_world, oracle = operator_pair(kind, block_rows, column)
        got = real_world.olap.executor.execute(real)
        want = oracle_world.olap.executor.execute(oracle)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert got.dram_bytes > 0 and got.elements > 0
        assert harvest(real) == harvest(oracle)

    def test_bad_geometry_raises_before_any_byte_moves(self, monkeypatch):
        """An out-of-range block and a bad stride/chunk fail with the
        per-block walk's errors, naming the table — but up front: where the
        walk had already staged earlier blocks, no WRAM byte or counter
        changes now."""
        import dataclasses

        from repro.olap.operators import HashOperation

        capacity, wram_bytes = WORLDS[256]
        world = scan_world(256, capacity, wram_bytes)
        storage, rows = world.table("t").storage, world_rows(256)
        before = world.units.wram.copy()
        plan = storage.column_scan_plan
        bank_size = world.rank.devices[0].bank_size

        def walk():
            oracle = OraclePhase("hash", storage, world.units, "c", rows)
            for chunk in range(oracle.num_chunks()):
                oracle.load(chunk)

        edits = {
            "MemoryError_": lambda i, s: dataclasses.replace(
                s, dram_addr=(s.bank + 1) * bank_size - 100
            ) if i == 5 else s,
            "ProtocolError": lambda i, s: dataclasses.replace(s, stride=s.chunk - 1),
        }
        for error, edit in edits.items():
            monkeypatch.setattr(
                storage, "column_scan_plan",
                lambda *a, e=edit: [e(i, s) for i, s in enumerate(plan(*a))],
            )
            got = capture(lambda: HashOperation(storage, world.units, "c", rows))
            assert got[1] == error
            np.testing.assert_array_equal(world.units.wram, before)
            assert not world.units.counts.any() and not world.units.times.any()
            kind, name, message = capture(walk)
            assert got == (kind, name, f"table 't': {message}")
            world.units.wram[:] = before
            world.units.counts[:] = 0
            world.units.times[:] = 0
        monkeypatch.setattr(
            storage, "column_scan_plan",
            lambda *a: [dataclasses.replace(s, chunk=0) for s in plan(*a)],
        )
        with pytest.raises(ProtocolError, match="invalid stride/chunk"):
            HashOperation(storage, world.units, "c", rows)

    def test_missing_indices_raise_before_any_byte_moves(self):
        """Group indices short of a block's rows, or one too many: the
        aggregation refuses them when it is built, naming the table — no
        WRAM byte, counter or memo entry changes."""
        from repro.olap.operators import AggregationOperation

        world, real, _, _ = operator_pair("aggregation", 256, "c")
        storage, rows = world.table("t").storage, world_rows(256)
        before, memo = world.units.wram.copy(), dict(world.units.scan_plans)
        count = rows.data_rows + rows.delta_rows
        for indices in (real.indices[: count - 128], np.append(real.indices, 0)):
            with pytest.raises(QueryError) as error:
                AggregationOperation(storage, world.units, "c", rows, indices, 5)
            assert str(error.value) == (
                f"table 't': {len(indices)} group indices for a scan of {count} rows"
            )
            np.testing.assert_array_equal(world.units.wram, before)
            assert not world.units.counts.any() and not world.units.times.any()
            assert world.units.scan_plans == memo


# ----------------------------------------------------------------------
# OLAP queries end to end: rows and simulated timing, pinned
# ----------------------------------------------------------------------
class TestQueryPin:
    @pytest.mark.parametrize(
        "pin", ["seven_queries.plain", "seven_queries.observed"], ids=["plain", "roofline"]
    )
    def test_seven_queries_identical(self, pin):
        """Pinned on 58a156f, the last commit whose operators walked units
        and blocks one at a time and whose join was the dict-of-sets loop."""
        assert PINS[pin]() == committed("pins")[pin]

    def test_observing_changes_no_query(self):
        """The ``roofline`` flag changes what is observed, not what is
        simulated: the observed run's rows, times and scan timings are the
        plain run's."""
        assert json.loads(seven_query_state(True))[0] == json.loads(seven_query_state(False))
