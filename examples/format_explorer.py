#!/usr/bin/env python
"""Explore the unified data format (§4): layouts, th trade-off, placement.

Walks through the paper's own CUSTOMER example (Fig. 3/4), sweeps the
bin-packing threshold over the full CH-benCHmark, and shows how the
block-circulant placement spreads one column over all devices.
"""

from repro.experiments import fig8
from repro.format.binpack import compact_aligned_layout_with_report
from repro.format.circulant import BlockCirculantPlacement
from repro.format.schema import Column, TableSchema
from repro.report import format_percent, format_table


def paper_example() -> None:
    """Reproduce Fig. 4's compact aligned format generation."""
    print("— Fig. 4: the paper's CUSTOMER example (d=4, th=3/4) —")
    schema = TableSchema.of(
        "customer",
        [
            Column("id", 2),
            Column("d_id", 2),
            Column("w_id", 4),
            Column("zip", 9, kind="bytes"),
            Column("state", 2),
            Column("credit", 2),
        ],
    )
    layout, report = compact_aligned_layout_with_report(
        schema, ["id", "d_id", "w_id", "state"], 4, 0.75
    )
    for part in layout.parts:
        slots = []
        for slot in part.slots:
            fields = "+".join(
                f"{f.column}[{f.col_offset}:{f.col_offset + f.length}]"
                for f in slot.fields
            ) or "(pad)"
            slots.append(fields)
        print(f"  part {part.index} (W={part.row_width}B): " + " | ".join(slots))
    print(f"  padding: {report.padding_bytes_per_row} B/row of "
          f"{report.stored_bytes_per_row} B stored\n")


def th_tradeoff() -> None:
    """Fig. 8a: the CPU/PIM bandwidth trade-off across th."""
    print("— Fig. 8a: threshold trade-off on the full CH-benCHmark —")
    rows = []
    for point in fig8.th_sweep():
        rows.append(
            [
                point.th,
                format_percent(point.cpu_bandwidth),
                format_percent(point.pim_bandwidth),
                point.total_parts,
            ]
        )
    print(format_table(["th", "CPU eff bw", "PIM eff bw", "total parts"], rows))
    print("  (the paper picks th = 0.6: high PIM bandwidth at workable CPU cost)\n")


def circulant_placement() -> None:
    """Fig. 5: block-circulant placement spreads columns over devices."""
    print("— Fig. 5: block-circulant placement (B = 1024) —")
    placement = BlockCirculantPlacement(num_devices=4, block_rows=1024)
    rows = []
    for block in range(4):
        row = [f"block {block} (rows {block * 1024}-{block * 1024 + 1023})"]
        row += [placement.device_for(block * 1024, slot) for slot in range(4)]
        rows.append(row)
    print(format_table(["rows", "col0 dev", "col1 dev", "col2 dev", "col3 dev"], rows))
    for rows_scanned in (1024, 2048, 4096):
        frac = placement.scan_parallelism(rows_scanned)
        print(f"  scanning one column over {rows_scanned} rows keeps "
              f"{format_percent(frac)} of PIM units busy")


def main() -> None:
    paper_example()
    th_tradeoff()
    circulant_placement()


if __name__ == "__main__":
    main()
