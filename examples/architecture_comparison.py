#!/usr/bin/env python
"""Architecture comparison (§6.1, §7.5): PUSHtap's controller vs the
original general-purpose PIM architecture.

Runs the same filter scan functionally under both memory controllers and
sweeps the analytic Q6 cost across WRAM sizes (Fig. 12b). Also shows the
launch-request protocol at work (Fig. 7b).
"""

from repro.core.engine import PushTapEngine
from repro.experiments import fig12
from repro.olap.operators import FilterOperation
from repro.pim.pim_unit import Condition
from repro.pim.requests import LaunchRequest, OpType, decode_launch
from repro.report import format_percent, format_table, format_time_ns


def protocol_demo() -> None:
    print("— Fig. 7b: launch requests disguised as memory writes —")
    request = LaunchRequest(
        OpType.FILTER,
        {"bitmap_offset": 0, "data_offset": 128, "result_offset": 8192,
         "data_width": 4, "condition": Condition("lt", 500).encode()},
    )
    payload = request.encode()
    print(f"  64-byte payload, type byte = {payload[0]} (FILTER)")
    decoded = decode_launch(payload)
    print(f"  decoded: data_width={decoded.get('data_width')}, "
          f"condition={Condition.decode(decoded.get('condition'))}")
    print(f"  needs bank handover: {decoded.op.needs_bank_handover} "
          "(compute phases leave DRAM to the CPU)\n")


def functional_comparison() -> None:
    print("— Functional scan under both controllers (same data, same ops) —")
    rows = []
    for kind in ("pushtap", "original"):
        engine = PushTapEngine.build(
            scale=3e-5, controller_kind=kind, defrag_period=0, block_rows=256
        )
        table = engine.table("orderline")
        ts = engine.db.oracle.read_timestamp()
        table.snapshots.update_to(ts)
        op = FilterOperation(
            table.storage, engine.units, "ol_quantity",
            Condition("le", 5), table.region_rows(),
        )
        result = engine.olap.executor.execute(op)
        matches = int(op.mask.sum())
        rows.append(
            [
                kind,
                matches,
                format_time_ns(result.total_time),
                format_time_ns(result.cpu_blocked_time),
                format_percent(result.control_fraction),
            ]
        )
    print(format_table(
        ["controller", "matches", "scan time", "CPU blocked", "control share"], rows
    ))
    print("  (identical results; the original architecture pays per-unit\n"
          "   messaging and blocks the CPU through compute phases)\n")


def wram_sweep() -> None:
    print("— Fig. 12b: Q6 vs WRAM size at paper scale (analytic) —")
    rows = []
    for point in fig12.wram_size_sweep():
        rows.append(
            [
                point.controller,
                f"{point.wram_bytes // 1024} kB",
                format_time_ns(point.q6_time),
                format_percent(point.control_fraction),
            ]
        )
    print(format_table(["controller", "WRAM", "Q6 time", "mode-switch share"], rows))


def main() -> None:
    protocol_demo()
    functional_comparison()
    wram_sweep()


if __name__ == "__main__":
    main()
