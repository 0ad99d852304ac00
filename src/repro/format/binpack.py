"""Compact aligned format generation — the bin-packing strategy of Fig. 4.

The generator builds the table's parts iteratively:

1. Start a new part with the widest remaining *key column*; its width
   becomes the part's ``row_width`` W.
2. Pack further device slots with remaining key columns whose width is at
   least ``th · W`` (the threshold trade-off of §4.1.2) — narrower keys
   wait for a later, narrower part rather than waste PIM bandwidth. A
   slot may hold several key columns when they fit (each stays
   contiguous, so PIM scans stream them at ``width / W`` efficiency).
3. Fill every remaining byte (empty slots and slot tails) with *normal
   column* bytes, which may be split arbitrarily.
4. If normal bytes run out while slots still have free space, remaining
   key columns that fit are pulled in regardless of ``th``: storing a
   narrow key at reduced PIM efficiency beats storing zeros — this is why
   the paper reports *negligible* padding (Fig. 8b) yet 97.4 % rather
   than 100 % PIM bandwidth at th = 0.6.

Once all key columns are placed, leftover normal bytes are packed into
dense normal-only parts. Normal columns are kept in maximal contiguous
runs so the CPU re-layout stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import LayoutError
from repro.format.layout import DeviceSlot, FieldPlacement, TablePart, UnifiedLayout
from repro.format.schema import Column, TableSchema
from repro.units import ceil_div

__all__ = ["compact_aligned_layout", "compact_aligned_layout_with_report", "BinPackReport"]

#: Cap on the row width of normal-only parts. CPU cost per row is
#: ``ceil(W / 8)`` interleaved bursts either way, so wide normal parts
#: cost the CPU the same as several 8 B parts while keeping the part
#: count (and per-part bookkeeping) low; they also give defragmentation
#: its wide-row regime (§5.3's Eq. 3 favours PIM movement above ~16 B;
#: §7.4 reports part widths "from 2 bytes to over 20 bytes").
_MAX_NORMAL_PART_WIDTH = 32


@dataclass
class _Segment:
    """A not-yet-placed contiguous byte run of a normal column."""

    column: str
    col_offset: int
    length: int


@dataclass
class _SlotBuilder:
    """Mutable slot under construction."""

    slot_index: int
    width: int
    fields: List[FieldPlacement]
    offset: int = 0

    @property
    def free(self) -> int:
        return self.width - self.offset

    def place_key(self, key: Column) -> None:
        self.fields.append(FieldPlacement(key.name, 0, self.offset, key.width))
        self.offset += key.width

    def build(self) -> DeviceSlot:
        return DeviceSlot(self.slot_index, tuple(self.fields))


@dataclass(frozen=True)
class BinPackReport:
    """Statistics describing a generated compact aligned layout."""

    th: float
    num_parts: int
    key_parts: int
    normal_parts: int
    padding_bytes_per_row: int
    stored_bytes_per_row: int
    relaxed_keys: Tuple[str, ...] = ()


def compact_aligned_layout(
    schema: TableSchema,
    key_columns: Sequence[str],
    num_devices: int,
    th: float,
    leftover: str = "pad",
) -> UnifiedLayout:
    """Generate the compact aligned format for ``schema``.

    ``key_columns`` are the columns scanned by the analytical workload
    (they stay indivisible and contiguous within one slot); ``th`` ∈
    [0, 1] is the width-ratio threshold controlling the PIM/CPU
    bandwidth trade-off. ``leftover`` picks the step-4 policy: ``"pad"``
    (default) keeps the th guarantee and zero-pads unfillable slots, as
    the paper's own Fig. 4 example does; ``"absorb"`` pulls remaining key
    columns into leftover space regardless of th, trading PIM efficiency
    for storage (the Fig. 8b padding-minimizing variant).
    """
    layout, _ = compact_aligned_layout_with_report(
        schema, key_columns, num_devices, th, leftover
    )
    return layout


def compact_aligned_layout_with_report(
    schema: TableSchema,
    key_columns: Sequence[str],
    num_devices: int,
    th: float,
    leftover: str = "pad",
) -> Tuple[UnifiedLayout, BinPackReport]:
    """Like :func:`compact_aligned_layout`, also returning statistics."""
    if leftover not in ("pad", "absorb"):
        raise LayoutError(f"unknown leftover policy {leftover!r}")
    if not 0.0 <= th <= 1.0:
        raise LayoutError(f"threshold th must be in [0, 1], got {th}")
    if num_devices <= 0:
        raise LayoutError("num_devices must be positive")
    key_set = set(key_columns)
    unknown = key_set - set(schema.column_names)
    if unknown:
        raise LayoutError(f"unknown key columns {sorted(unknown)}")

    # Widest-first, ties broken by schema order for determinism.
    order = {c.name: i for i, c in enumerate(schema)}
    keys: List[Column] = sorted(
        (schema.column(n) for n in dict.fromkeys(key_columns)),
        key=lambda c: (-c.width, order[c.name]),
    )
    segments: List[_Segment] = [
        _Segment(c.name, 0, c.width) for c in schema if c.name not in key_set
    ]

    parts: List[TablePart] = []
    key_parts = 0
    relaxed: List[str] = []
    while keys:
        parts.append(
            _build_key_part(
                len(parts), keys, segments, num_devices, th, relaxed, leftover
            )
        )
        key_parts += 1
    while segments:
        parts.append(_build_normal_part(len(parts), segments, num_devices))

    layout = UnifiedLayout(schema, parts, tuple(dict.fromkeys(key_columns)), num_devices)
    report = BinPackReport(
        th=th,
        num_parts=len(parts),
        key_parts=key_parts,
        normal_parts=len(parts) - key_parts,
        padding_bytes_per_row=layout.padding_bytes_per_row(),
        stored_bytes_per_row=layout.bytes_per_row(),
        relaxed_keys=tuple(relaxed),
    )
    return layout, report


def _build_key_part(
    part_index: int,
    keys: List[Column],
    segments: List[_Segment],
    num_devices: int,
    th: float,
    relaxed: List[str],
    leftover: str = "pad",
) -> TablePart:
    """Build one part anchored on the widest remaining key column."""
    anchor = keys.pop(0)
    width = anchor.width
    builders = [_SlotBuilder(i, width, []) for i in range(num_devices)]
    builders[0].place_key(anchor)
    # Step 2: pack qualifying key columns densely into the slots.
    for builder in builders:
        while True:
            key = _pop_key(keys, builder.free, min_width=th * width)
            if key is None:
                break
            builder.place_key(key)
    # Step 3: fill remaining bytes with normal column bytes.
    for builder in builders:
        if builder.free > 0 and segments:
            taken = _take_segments(segments, builder.free, builder.offset)
            builder.fields.extend(taken)
            builder.offset += sum(f.length for f in taken)
    # Step 4 (optional policy): normals exhausted — absorb leftover keys
    # rather than pad, forfeiting the th guarantee for those keys.
    if leftover == "absorb" and not segments:
        for builder in builders:
            while builder.free > 0:
                key = _pop_key(keys, builder.free, min_width=0.0)
                if key is None:
                    break
                relaxed.append(key.name)
                builder.place_key(key)
    return TablePart(part_index, width, tuple(b.build() for b in builders))


def _build_normal_part(
    part_index: int, segments: List[_Segment], num_devices: int
) -> TablePart:
    """Build a dense part holding only normal-column bytes."""
    remaining = sum(s.length for s in segments)
    width = min(_MAX_NORMAL_PART_WIDTH, max(1, ceil_div(remaining, num_devices)))
    slots: List[DeviceSlot] = []
    for slot_index in range(num_devices):
        fields = _take_segments(segments, width, base_offset=0)
        slots.append(DeviceSlot(slot_index, tuple(fields)))
    return TablePart(part_index, width, tuple(slots))


def _pop_key(keys: List[Column], free: int, min_width: float) -> Optional[Column]:
    """Pop the widest key that fits in ``free`` bytes and meets ``min_width``."""
    for i, key in enumerate(keys):
        if key.width <= free and key.width >= min_width:
            return keys.pop(i)
    return None


def _take_segments(
    segments: List[_Segment], free: int, base_offset: int
) -> List[FieldPlacement]:
    """Consume up to ``free`` bytes of normal-column segments.

    Segments are consumed front-to-back, splitting the last one if it does
    not fit, so each column stays in as few runs as possible.
    """
    placements: List[FieldPlacement] = []
    offset = base_offset
    while free > 0 and segments:
        seg = segments[0]
        take = min(seg.length, free)
        placements.append(FieldPlacement(seg.column, seg.col_offset, offset, take))
        offset += take
        free -= take
        if take == seg.length:
            segments.pop(0)
        else:
            seg.col_offset += take
            seg.length -= take
    return placements
