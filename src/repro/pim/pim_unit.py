"""Functional PIM unit model (UPMEM-like, §2.1).

One :class:`PIMUnit` sits next to one DRAM bank. It owns a WRAM scratchpad
(64 kB by default) and executes the operations of Fig. 7b:

* **LS** — the load phase: write back the previous result from WRAM to the
  bank and stream new operand data from the bank into WRAM (strided, to
  follow the block-circulant placement).
* **Filter / Group / Aggregation / Hash / Join** — compute phases operating
  entirely inside WRAM, consulting the snapshot bitmap to skip invisible
  rows.

Every method is functional (real bytes move) and returns the modelled time
in nanoseconds. DRAM-side time uses the streaming model of
:mod:`repro.pim.timing`; compute time is ``ceil(n / tasklets)`` element
steps at a few cycles per element.

The OLAP operators run these operations a rank at a time: once per phase
they call an operation's *kernel* — a pure array function over a leading
block axis (:func:`filter_kernel`, :func:`group_kernel`,
:func:`aggregation_kernel`, :func:`hash_kernel`) — on every block of the
rank, staged through :class:`RankUnits`, which keeps a rank's scratchpads
and work counters in shared matrices, and charge each unit what
:meth:`PIMUnit.strided_cost` and :func:`compute_phase_time` give.
:mod:`repro.bench.micro` measures that query path on a one-unit rank,
plus this class's :meth:`PIMUnit.op_join` and :meth:`PIMUnit.copy_rows`.
The one-block :meth:`PIMUnit.load_strided` and ``op_filter`` /
``op_group`` / ``op_aggregation`` / ``op_hash`` (each staging its block
out of WRAM and calling the same kernel) serve the unit tests and the
end-to-end benchmark's layer trace, not the queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import DRAMTimings, DeviceGeometry, PIMUnitConfig
from repro.errors import MemoryError_, ProtocolError
from repro.pim.device import Bank
from repro.pim.memory import Rank, byte_runs
from repro.pim.timing import stream_time
from repro.units import ceil_div

__all__ = [
    "PIMUnit",
    "PIMUnitStats",
    "RankUnits",
    "CYCLES_PER_ELEMENT",
    "compute_phase_time",
    "bytes_to_uints",
    "uints_to_bytes",
    "Condition",
    "distinct",
    "filter_kernel",
    "group_kernel",
    "aggregation_kernel",
    "hash_kernel",
]

#: Modelled compute cost per element, in PIM cycles per tasklet.
CYCLES_PER_ELEMENT = {
    "filter": 4,
    "group": 8,
    "aggregation": 6,
    "hash": 10,
    "join": 12,
    "copy": 2,
}


def compute_phase_time(config: PIMUnitConfig, elements: float, kind: str) -> float:
    """Modelled ns of one ``kind`` compute phase over ``elements`` on one
    unit: ``ceil(max(n, 1) / tasklets)`` steps of ``CYCLES_PER_ELEMENT[kind]``
    cycles. The functional units and the analytic scan model
    (:func:`repro.olap.cost.column_scan_cost`) both charge this."""
    steps = ceil(max(elements, 1) / config.tasklets)
    return steps * CYCLES_PER_ELEMENT[kind] * config.cycle_ns


#: Widths with a native little-endian dtype (decoded via a zero-copy view).
_NATIVE_WIDTHS = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}


def bytes_to_uints(raw: np.ndarray, width: int) -> np.ndarray:
    """Decode bytes into little-endian unsigned ints along the last axis.

    ``width`` may be 1–8 bytes; the result dtype is ``uint64``. Leading
    axes are kept, so ``(blocks, rows * width)`` bytes decode to
    ``(blocks, rows)`` values.
    """
    raw = np.ascontiguousarray(raw, dtype=np.uint8)
    if width <= 0 or width > 8:
        raise ProtocolError(f"element width must be 1..8, got {width}")
    if raw.shape[-1] % width != 0:
        raise ProtocolError(
            f"byte length {raw.shape[-1]} not a multiple of width {width}"
        )
    if width in _NATIVE_WIDTHS:
        return raw.view(_NATIVE_WIDTHS[width]).astype(np.uint64)
    # Widths 3/5/6/7 have no dtype to view as: read 8 bytes at every
    # element (a zero pad covers the last one's overhang) and mask off
    # what belongs to its neighbour.
    padded = np.zeros(raw.size + 8 - width, dtype=np.uint8)
    padded[: raw.size] = raw.reshape(-1)
    wide = np.ndarray(
        (raw.size // width,), dtype=_NATIVE_WIDTHS[8], buffer=padded, strides=(width,)
    )
    mask = np.uint64((1 << (8 * width)) - 1)
    return (wide & mask).reshape(raw.shape[:-1] + (-1,))


def uints_to_bytes(values: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`bytes_to_uints`."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if width <= 0 or width > 8:
        raise ProtocolError(f"element width must be 1..8, got {width}")
    if width in _NATIVE_WIDTHS:
        # Narrowing keeps the low bytes — exactly the per-byte shifts below.
        return values.astype(_NATIVE_WIDTHS[width], copy=False).view(np.uint8).copy()
    out = np.empty((len(values), width), dtype=np.uint8)
    for b in range(width):
        out[:, b] = (values >> np.uint64(8 * b)).astype(np.uint8)
    return out.reshape(-1)


@dataclass(frozen=True)
class Condition:
    """A filter predicate encoded in the 8-byte ``condition`` field.

    Byte 0 is the comparison opcode; bytes 1–7 hold the little-endian
    operand. ``BETWEEN``-style predicates are expressed as two filters.
    """

    op: str
    operand: int

    _OPCODES = {"eq": 0, "ne": 1, "lt": 2, "le": 3, "gt": 4, "ge": 5}

    def __post_init__(self) -> None:
        if self.op not in self._OPCODES:
            raise ProtocolError(f"unknown comparison op {self.op!r}")
        if not 0 <= self.operand < (1 << 56):
            raise ProtocolError("condition operand must fit in 7 bytes")

    def encode(self) -> int:
        """Pack into the 8-byte integer carried by the launch request."""
        return self._OPCODES[self.op] | (self.operand << 8)

    @classmethod
    def decode(cls, packed: int) -> "Condition":
        """Unpack from the launch request field."""
        opcode = packed & 0xFF
        for name, code in cls._OPCODES.items():
            if code == opcode:
                return cls(name, packed >> 8)
        raise ProtocolError(f"unknown comparison opcode {opcode}")

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """Vectorized predicate evaluation."""
        operand = np.uint64(self.operand)
        if self.op == "eq":
            return values == operand
        if self.op == "ne":
            return values != operand
        if self.op == "lt":
            return values < operand
        if self.op == "le":
            return values <= operand
        if self.op == "gt":
            return values > operand
        return values >= operand


def _counter(row: str, index: int) -> property:
    """A :class:`PIMUnitStats` field kept at ``index`` of one of its rows."""

    def fget(self):
        return getattr(self, row)[index]

    def fset(self, value) -> None:
        getattr(self, row)[index] = value

    return property(fget, fset)


class PIMUnitStats:
    """Accumulated work counters of one PIM unit.

    The numbers sit in two array rows — ``counts`` (int64: DRAM bytes
    read, DRAM bytes written, elements processed) and ``times`` (float64:
    load, compute) — so a rank can keep all its units' rows in two
    matrices and charge a phase to every unit with one array add
    (:class:`RankUnits`). A stand-alone unit allocates its own rows.
    Fields read and write as plain Python numbers.
    """

    __slots__ = ("_counts", "_times")

    def __init__(
        self, counts: Optional[np.ndarray] = None, times: Optional[np.ndarray] = None
    ) -> None:
        self._counts = memoryview(np.zeros(3, dtype=np.int64) if counts is None else counts)
        self._times = memoryview(np.zeros(2) if times is None else times)

    dram_bytes_read = _counter("_counts", 0)
    dram_bytes_written = _counter("_counts", 1)
    elements_processed = _counter("_counts", 2)
    load_time = _counter("_times", 0)
    compute_time = _counter("_times", 1)


class PIMUnit:
    """One per-bank PIM unit with a WRAM scratchpad."""

    def __init__(
        self,
        unit_id: int,
        bank: Bank,
        config: PIMUnitConfig,
        timings: DRAMTimings,
        geometry: DeviceGeometry,
        wram: Optional[np.ndarray] = None,
        stats: Optional[PIMUnitStats] = None,
    ) -> None:
        self.unit_id = unit_id
        self.bank = bank
        self.config = config
        self.timings = timings
        self.geometry = geometry
        if wram is None:
            wram = np.zeros(config.wram_bytes, dtype=np.uint8)
        elif wram.shape != (config.wram_bytes,) or wram.dtype != np.uint8:
            raise MemoryError_(
                f"unit {unit_id} WRAM backing array must be {config.wram_bytes} "
                f"uint8 bytes, got {wram.dtype} {wram.shape}"
            )
        #: The scratchpad — a rank passes row ``unit_id`` of its WRAM
        #: matrix (and of its counter matrices, as ``stats``).
        self.wram = wram
        self.stats = stats if stats is not None else PIMUnitStats()

    # ------------------------------------------------------------------
    # WRAM access
    # ------------------------------------------------------------------
    def wram_read(self, offset: int, nbytes: int) -> np.ndarray:
        """Read bytes from WRAM."""
        self._check_wram(offset, nbytes)
        return self.wram[offset : offset + nbytes].copy()

    def wram_write(self, offset: int, data: np.ndarray) -> None:
        """Write bytes into WRAM."""
        data = np.asarray(data, dtype=np.uint8)
        self._check_wram(offset, len(data))
        self.wram[offset : offset + len(data)] = data

    def _check_wram(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > len(self.wram):
            raise MemoryError_(
                f"unit {self.unit_id}: WRAM access [{offset}, {offset + nbytes}) "
                f"out of range (size {len(self.wram)})"
            )

    # ------------------------------------------------------------------
    # Load phase
    # ------------------------------------------------------------------
    def load_strided(
        self,
        dram_addr: int,
        length: int,
        stride: int,
        chunk: int,
        wram_offset: int,
    ) -> float:
        """Stream ``length`` bytes from the bank into WRAM.

        Data is gathered as ``chunk``-byte pieces at ``stride`` spacing
        starting at ``dram_addr`` (stride = the part's row width; chunk =
        the scanned footprint per row). With ``stride == chunk`` this is a
        dense copy. Returns modelled time; DRAM traffic is accounted at
        the unit's 8 B access granularity, so sub-granule chunks still
        cost a full granule (the fragmentation effect of Fig. 11b).
        """
        if length <= 0:
            return 0.0
        if chunk <= 0 or stride < chunk:
            raise ProtocolError(f"invalid stride/chunk {stride}/{chunk}")
        self._check_wram(wram_offset, length)
        extent, moved, time = self.strided_cost(length, stride, chunk)
        # One read up to the last byte any piece touches (so the bank
        # bounds check covers exactly the bytes gathered), then — unless
        # the pieces are contiguous — a strided gather.
        out = self.bank.read(dram_addr, extent)
        if stride != chunk:
            idx = (
                np.arange(ceil_div(length, chunk), dtype=np.intp)[:, None] * stride
                + np.arange(chunk, dtype=np.intp)[None, :]
            ).reshape(-1)[:length]
            out = out[idx]
        self.wram[wram_offset : wram_offset + length] = out
        self.stats.dram_bytes_read += moved
        self.stats.load_time += time
        return time

    def strided_cost(
        self, length: int, stride: int, chunk: int
    ) -> Tuple[int, int, float]:
        """``(extent, moved, time)`` of one :meth:`load_strided` — a
        function of the shape alone: bank bytes from the first to the last
        one read, DRAM bytes moved at the access granularity, modelled
        ns."""
        granule = self.config.access_granularity
        if stride == chunk:
            extent, moved = length, max(length, granule)
        else:
            pieces = ceil_div(length, chunk)
            extent = (pieces - 1) * (stride - chunk) + length
            moved = pieces * max(granule, chunk)
        return extent, moved, self._dram_time(moved)

    def _dram_time(self, moved: int) -> float:
        """DRAM-side transfer time, capped by the unit's bandwidth spec."""
        raw = stream_time(moved, self.timings, self.geometry, self.config.access_granularity)
        return max(raw, moved / self.config.dram_bandwidth)

    # ------------------------------------------------------------------
    # Compute phases (WRAM-only)
    # ------------------------------------------------------------------
    def _compute_time(self, elements: int, kind: str) -> float:
        time = compute_phase_time(self.config, elements, kind)
        self.stats.elements_processed += elements
        self.stats.compute_time += time
        return time

    def _staged(
        self,
        data_offset: int,
        bitmap_offset: int,
        data_width: int,
        count: int,
        bitmap_base_row: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One staged block as the kernels take it: ``(1, count)`` decoded
        values and the snapshot bitmap expanded to ``(1, count)`` bools."""
        values = bytes_to_uints(self.wram_read(data_offset, count * data_width), data_width)
        last_bit = bitmap_base_row + count
        raw = self.wram_read(bitmap_offset, ceil_div(last_bit, 8))
        bits = np.unpackbits(raw, bitorder="little")
        return values[None], bits[None, bitmap_base_row:last_bit].view(bool)

    def op_filter(
        self,
        bitmap_offset: int,
        data_offset: int,
        result_offset: int,
        data_width: int,
        condition: Condition,
        count: int,
        bitmap_base_row: int = 0,
    ) -> float:
        """Filter ``count`` elements; write a result bitmap to WRAM.

        Invisible rows (snapshot bit 0) never match.
        """
        values, visible = self._staged(data_offset, bitmap_offset, data_width, count, bitmap_base_row)
        matches = filter_kernel(values, visible, condition)
        self.wram_write(result_offset, np.packbits(matches[0], bitorder="little"))
        return self._compute_time(count, "filter")

    def op_group(
        self,
        bitmap_offset: int,
        data_offset: int,
        dict_offset: int,
        result_offset: int,
        data_width: int,
        count: int,
        dict_capacity: int = 256,
        bitmap_base_row: int = 0,
    ) -> float:
        """Dictionary-encode ``count`` group keys into dense group indices.

        The dictionary (distinct keys, little-endian ``data_width`` bytes
        each) is written at ``dict_offset``; per-row 2-byte group indices
        at ``result_offset``. Invisible rows get index 0xFFFF.
        """
        values, visible = self._staged(data_offset, bitmap_offset, data_width, count, bitmap_base_row)
        dictionaries, indices = group_kernel(values, visible, dict_capacity)
        self.wram_write(dict_offset, uints_to_bytes(dictionaries[0], data_width))
        self.wram_write(result_offset, indices.view(np.uint8)[0])
        return self._compute_time(count, "group")

    def op_aggregation(
        self,
        bitmap_offset: int,
        data_offset: int,
        index_offset: int,
        result_offset: int,
        data_width: int,
        count: int,
        num_groups: int,
        bitmap_base_row: int = 0,
    ) -> float:
        """Sum ``count`` values into per-group 8-byte accumulators.

        Group indices are the 2-byte outputs of :meth:`op_group`;
        accumulators at ``result_offset`` are read-modified-written so
        chunked execution accumulates across phases.
        """
        values, visible = self._staged(data_offset, bitmap_offset, data_width, count, bitmap_base_row)
        indices = self.wram_read(index_offset, count * 2).view(np.uint16)
        acc = self.wram_read(result_offset, num_groups * 8).view(np.uint64)
        aggregation_kernel(values, visible, indices[None], acc[None])
        self.wram_write(result_offset, acc.view(np.uint8))
        return self._compute_time(count, "aggregation")

    def op_hash(
        self,
        bitmap_offset: int,
        data_offset: int,
        result_offset: int,
        data_width: int,
        count: int,
        hash_function: int = 0,
        bitmap_base_row: int = 0,
    ) -> float:
        """Hash ``count`` keys to 4-byte values (0 for invisible rows)."""
        values, visible = self._staged(data_offset, bitmap_offset, data_width, count, bitmap_base_row)
        hashed = hash_kernel(values, visible, hash_function)
        self.wram_write(result_offset, hashed.view(np.uint8)[0])
        return self._compute_time(count, "hash")

    def op_join(
        self,
        hash1_offset: int,
        hash2_offset: int,
        result_offset: int,
        count1: int,
        count2: int,
    ) -> float:
        """Join two 4-byte hash buckets; write match-pair indices.

        The result region receives a 4-byte match count followed by
        ``(i, j)`` pairs of 4-byte indices into the two buckets.
        """
        h1 = self.wram_read(hash1_offset, count1 * 4).view(np.uint32)
        h2 = self.wram_read(hash2_offset, count2 * 4).view(np.uint32)
        pairs_flat, num_pairs = _join_pairs(h1, h2)
        out = np.empty(4 + num_pairs * 8, dtype=np.uint8)
        out[:4] = np.frombuffer(np.uint32(num_pairs).tobytes(), dtype=np.uint8)
        if num_pairs:
            out[4:] = pairs_flat.view(np.uint8)
        self.wram_write(result_offset, out)
        return self._compute_time(count1 + count2, "join")

    def copy_rows(self, src_addrs: np.ndarray, dst_addrs: np.ndarray, width: int) -> float:
        """Defragmentation helper: copy ``width``-byte slots bank-locally."""
        if len(src_addrs) != len(dst_addrs):
            raise ProtocolError("src/dst address count mismatch")
        if len(src_addrs):
            src = np.asarray(src_addrs, dtype=np.intp)
            dst = np.asarray(dst_addrs, dtype=np.intp)
            hi = max(int(src.max()), int(dst.max())) + width
            if src.min() < 0 or dst.min() < 0 or hi > self.bank.size:
                raise MemoryError_(
                    f"bank {self.bank.index} copy_rows access out of range "
                    f"(size {self.bank.size})"
                )
            # Defragmentation copies delta blocks into data blocks — the
            # regions are distinct allocations, so gather-then-scatter
            # matches a sequential per-row copy: one item per row.
            slots = byte_runs(self.bank.device.data[None], width)[0]
            base = self.bank.start
            slots[base + dst] = slots[base + src]
        granule = self.config.access_granularity
        moved = 2 * len(src_addrs) * max(width, granule)
        time = self._dram_time(moved)
        self.stats.dram_bytes_read += moved // 2
        self.stats.dram_bytes_written += moved // 2
        self.stats.load_time += time
        time += self._compute_time(len(src_addrs), "copy")
        return time


class RankUnits(Dict[Tuple[int, int], PIMUnit]):
    """The PIM units of one rank, by ``(device, bank)``, on shared arrays.

    Unit ``i``'s scratchpad is row ``i`` of :attr:`wram` and its work
    counters are row ``i`` of :attr:`counts` / :attr:`times` (the two rows
    of its :class:`PIMUnitStats`) — what ``Rank.mem`` is to the devices.
    A phase that runs on many units at once reads, writes and charges
    them through these matrices; each unit sees the same bytes and
    numbers through its own ``wram`` and ``stats``.
    """

    def __init__(
        self,
        rank: Rank,
        config: PIMUnitConfig,
        timings: DRAMTimings,
        geometry: DeviceGeometry,
    ) -> None:
        super().__init__()
        banks = [bank for device in rank.devices for bank in device.banks]
        self.wram = np.zeros((len(banks), config.wram_bytes), dtype=np.uint8)
        self.counts = np.zeros((len(banks), 3), dtype=np.int64)
        self.times = np.zeros((len(banks), 2))
        #: The OLAP operators' scan plans over these matrices, one per
        #: shape, grown as the extents move (:mod:`repro.olap.operators`).
        self.scan_plans: Dict[tuple, object] = {}
        for unit_id, bank in enumerate(banks):
            self[(bank.device.index, bank.index)] = PIMUnit(
                unit_id,
                bank,
                config,
                timings,
                geometry,
                wram=self.wram[unit_id],
                stats=PIMUnitStats(self.counts[unit_id], self.times[unit_id]),
            )


# ----------------------------------------------------------------------
# Fig. 7b kernels: pure array functions over ``(blocks, rows)`` operands.
# ``values`` are decoded keys, ``visible`` the snapshot bits; a unit's
# ``op_*`` is the one-block case, an operator phase passes a rank's worth.
# ----------------------------------------------------------------------
def filter_kernel(values: np.ndarray, visible: np.ndarray, condition: Condition) -> np.ndarray:
    """Rows that satisfy ``condition`` and are visible."""
    return condition.evaluate(values) & visible


def distinct(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array by a sort and a neighbour compare (no hashing)."""
    ordered = np.sort(keys)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


def group_kernel(
    values: np.ndarray, visible: np.ndarray, dict_capacity: int
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Per-block dictionaries (sorted distinct visible keys) and per-row
    2-byte indices into them; invisible rows get 0xFFFF."""
    indices = np.full(values.shape, 0xFFFF, dtype=np.uint16)
    dictionaries = []
    # Ragged by nature: each block has its own dictionary.
    for block_values, block_visible, block_indices in zip(values, visible, indices):
        keys = block_values[block_visible]
        uniques = distinct(keys)
        if len(uniques) > dict_capacity:
            raise ProtocolError(
                f"group dictionary overflow: {len(uniques)} keys > {dict_capacity}"
            )
        block_indices[block_visible] = np.searchsorted(uniques, keys)
        dictionaries.append(uniques)
    return dictionaries, indices


def aggregation_kernel(
    values: np.ndarray, visible: np.ndarray, indices: np.ndarray, acc: np.ndarray
) -> np.ndarray:
    """Add each visible row's value to accumulator ``indices[row]`` of its
    block; ``acc`` is ``(blocks, groups)`` uint64, updated in place."""
    groups = acc.shape[1]
    valid = visible & (indices != 0xFFFF)
    if (valid & (indices >= groups)).any():
        raise ProtocolError(f"group index beyond the {groups} accumulators")
    # One flat pass over every row: a row that counts adds to slot
    # ``block * groups + index``, any other to a spill slot past the end.
    slots = np.where(valid, np.arange(len(acc))[:, None] * groups + indices, acc.size)
    sums = np.zeros(acc.size + 1, dtype=np.uint64)
    np.add.at(sums, slots.ravel(), values.ravel())
    acc += sums[:-1].reshape(acc.shape)
    return acc


def hash_kernel(values: np.ndarray, visible: np.ndarray, hash_function: int) -> np.ndarray:
    """4-byte hashes of the keys; 0 marks an invisible row."""
    hashed = _hash_u64(values, hash_function)
    hashed[~visible] = 0
    return hashed


def _join_pairs(h1: np.ndarray, h2: np.ndarray):
    """Sort/searchsorted bucket match; returns (flat pairs, pair count).

    Pair order is probe index ``i`` ascending, then build index ``j``
    ascending within equal hashes: the stable sort groups equal
    build-side hashes while preserving ascending ``j`` within each
    group. Hash 0 marks invisible rows on both sides and never matches.
    """
    j_nonzero = np.nonzero(h2)[0]
    if len(j_nonzero) == 0 or len(h1) == 0:
        return np.empty(0, dtype=np.uint32), 0
    h2_live = h2[j_nonzero]
    order = np.argsort(h2_live, kind="stable")
    h2_sorted = h2_live[order]
    j_sorted = j_nonzero[order]
    left = np.searchsorted(h2_sorted, h1, side="left")
    counts = np.searchsorted(h2_sorted, h1, side="right") - left
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.uint32), 0
    i_rep = np.repeat(np.arange(len(h1), dtype=np.uint32), counts)
    starts = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.intp) - np.repeat(starts, counts)
    j_rep = j_sorted[np.repeat(left, counts) + within].astype(np.uint32)
    return np.stack([i_rep, j_rep], axis=1).reshape(-1), total


def _hash_u64(values: np.ndarray, hash_function: int) -> np.ndarray:
    """Simple multiplicative hashes selected by ``hash_function``.

    Hash 0 is reserved as the "invisible" marker, so outputs are forced
    non-zero.
    """
    multipliers = (
        np.uint64(0x9E3779B97F4A7C15),
        np.uint64(0xC2B2AE3D27D4EB4F),
        np.uint64(0x165667B19E3779F9),
    )
    mult = multipliers[hash_function % len(multipliers)]
    mixed = (values + np.uint64(1)) * mult
    out = (mixed >> np.uint64(32)).astype(np.uint32)
    out[out == 0] = 1
    return out
