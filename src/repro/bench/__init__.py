"""Bench harnesses: pinned simulated snapshots, microbenchmarks, roofline.

``repro.bench.harness`` reruns the standard profile workloads and
asserts that every *simulated* metric (counters, span totals, QphH/tpmC,
critical path) is bit-identical to a committed ``BENCH_<tag>.json``
baseline, and that the sharded cluster produces the same report at
``jobs=1`` and ``jobs=N``; see ``python -m repro.experiments bench``.
``repro.bench.micro`` and ``repro.bench.roofline`` are the PrIM-style
single-unit sweeps behind ``python -m repro.experiments roofline``.
"""

from repro.bench.harness import (
    SIM_SECTIONS,
    BenchResult,
    ClusterRun,
    deterministic_snapshot,
    diff_sections,
    run_bench,
    simulated_sections,
)
from repro.bench.micro import MicroPoint, fit_saturation, run_micro
from repro.bench.roofline import render_roofline, run_roofline

__all__ = [
    "SIM_SECTIONS",
    "BenchResult",
    "ClusterRun",
    "MicroPoint",
    "deterministic_snapshot",
    "diff_sections",
    "fit_saturation",
    "render_roofline",
    "run_bench",
    "run_micro",
    "run_roofline",
    "simulated_sections",
]
