"""The simulated-identity gate as data: one :data:`BASELINES` row per pinned file.

A row is a producer: a call with every parameter spelled out in the row
(``serve_ablation``'s are :func:`run_serve_ablation`'s defaults, the one
parameter set that ``serve --ablation`` runs as well), whose JSON output
is pinned in ``baselines/<id>.json`` at the repository root. A change
that leaves every producer equal to its file — exact floats, no
tolerance — preserves the simulated behaviour; a change that moves one
number is a correctness change, and :func:`diff` names the row and the
path where it moved. ``scripts/check_baselines.py [ids…]``
regenerates the rows and diffs them (``--write`` re-pins), and
``tests/test_baselines.py`` runs every row except ``figures`` (~11 s; its
ddr5 half is ``tests/test_figures.py``) and ``pins`` (each :data:`PINS`
digest has its own tier-1 test beside the code it pins).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import tempfile
from typing import Any, Callable, Dict, List

from repro.bench.roofline import run_roofline
from repro.cluster import cluster_row_counts
from repro.core.config import SUBSTRATES, substrate_config
from repro.core.engine import PushTapEngine
from repro.experiments.cluster import _run_cell, run_cluster_bench
from repro.experiments.figures import FIGURES, as_json
from repro.faults.sweep import sweep_report
from repro.serve.loop import ServeConfig, ServeLoop
from repro.serve.runner import run_serve_ablation
from repro.telemetry import registry as telemetry
from repro.trace.profile import run_profile
from repro.workloads.chbench import row_counts
from repro.workloads.tpcc_gen import generate_table

__all__ = ["BASELINES", "PINS", "SEVEN_QUERIES", "diff", "regenerate"]

SEVEN_QUERIES = ("Q1", "Q6", "Q9", "Q4", "Q12", "Q14", "Q17")


def _figures() -> Dict[str, Dict[str, list]]:
    """Every figure's points on every registered substrate."""
    return {
        substrate: {
            figure_id: as_json(figure.points(substrate_config(substrate)))
            for figure_id, figure in FIGURES.items()
        }
        for substrate in sorted(SUBSTRATES)
    }


def _profile() -> Dict[str, Dict[str, Any]]:
    """The simulated sections of the three profile workloads."""
    return {
        workload: run_profile(
            workload, intervals=6, txns_per_query=30, scale=2e-5, seed=11,
            defrag_period=200,
        ).sections
        for workload in ("mixed", "ch", "tpcc")
    }


def _cluster_jobs() -> Dict[str, Any]:
    """One 4-shard cell on 4 worker processes.

    Its file holds the report ``jobs=1`` produced, so the process pool
    may not move a number.
    """
    return _run_cell(
        shards=4, counts=cluster_row_counts(2e-5, 4), tenants=4,
        remote_fraction=1.0, intervals=6, txns_per_query=30, seed=11,
        interconnect_ns=500.0, defrag_period=200, jobs=4,
    )


def generator_sha256() -> str:
    """sha256 of every table's column blocks at ``row_counts(2e-5)``, seed 7."""
    counts = row_counts(2e-5)
    digest = hashlib.sha256()
    for table in counts:
        for block in generate_table(table, counts, seed=7):
            for column, values in block.items():
                digest.update(column.encode() + values.tobytes())
    return digest.hexdigest()


def device_image_sha256() -> str:
    """sha256 of every device byte after a build, 180 transactions and a defrag."""
    engine = PushTapEngine.build(scale=2e-5, seed=7)
    engine.run_transactions(180)
    engine.defragment()
    digest = hashlib.sha256()
    for device in engine.rank.devices:
        digest.update(device.data.tobytes())
    return digest.hexdigest()


def durable_bytes_sha256() -> str:
    """sha256 over the WAL, manifest and segment files (by name) that 120 TPC-C
    transactions (20 % Delivery) checkpointed every 24 commits leave."""
    engine = PushTapEngine.build(scale=2e-5, seed=7)
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as path:
        manager = engine.enable_durability(path, checkpoint_every=24, sync=False)
        engine.run_transactions(120, engine.make_driver(seed=3, delivery_fraction=0.2))
        manager.close()
        for file in sorted(pathlib.Path(path).iterdir()):
            if file.name in ("wal.log", "MANIFEST.json") or file.name.startswith("seg-"):
                digest.update(file.name.encode() + file.read_bytes())
    return digest.hexdigest()


def serve_state(arrival: str) -> str:
    """One full serve run; returns (report, telemetry dump) as JSON."""
    telemetry.disable()
    engine = PushTapEngine.build(scale=2e-5, seed=5)
    tel = telemetry.enable()
    try:
        config = ServeConfig(
            tenants=2, requests_per_tenant=16, policy="batched", seed=9,
            arrival=arrival, olap_fraction=0.3,
        )
        result = ServeLoop(engine, config).run()
        dump = {
            "counters": {k: c.value for k, c in sorted(tel.counters.items())},
            "histograms": {
                k: (h.count, h.sum, list(h.samples)) for k, h in sorted(tel.histograms.items())
            },
            "spans": [(s.name, s.start, s.duration, s.attrs) for s in tel.spans],
            "sim_time": tel.sim_time,
        }
        return json.dumps({"report": result.report, "telemetry": dump}, sort_keys=True, default=str)
    finally:
        telemetry.disable()


def seven_query_state(observed: bool) -> str:
    """Rows, total time and every scan-timing field of :data:`SEVEN_QUERIES`
    on ``build(2e-5, seed 7)`` after 180 driver transactions and no defrag,
    so delta blocks are scanned too. ``observed`` runs them under telemetry
    with the roofline flag on and adds the roofline log and the per-unit
    lane spans."""
    telemetry.disable()
    engine = PushTapEngine.build(scale=2e-5, seed=7, defrag_period=0)
    engine.run_transactions(180)
    registry = telemetry.MetricsRegistry()
    registry.roofline = True
    if observed:
        telemetry.enable(registry)
    try:
        record = []
        for name in SEVEN_QUERIES:
            result = engine.query(name)
            rows = sorted((str(k), repr(v)) for k, v in result.rows.items())
            scan = dataclasses.asdict(result.timing.scan)
            record.append([name, rows, result.timing.total_time, scan])
    finally:
        telemetry.disable()
    if not observed:
        return json.dumps(record, sort_keys=True)
    lanes = [
        [s.name, s.start, s.duration, [list(a) for a in s.attrs]]
        for s in registry.spans if s.name in ("pim.unit.load", "pim.unit.compute")
    ]
    roofline = [m.as_dict() for m in engine.olap.roofline_log]
    assert lanes and roofline
    return json.dumps([record, roofline, lanes], sort_keys=True)


#: Pin name → the call that recomputes its digest (the ``pins`` row).
PINS: Dict[str, Callable[[], str]] = {
    "generator": generator_sha256,
    "device_image": device_image_sha256,
    "wal_durable": durable_bytes_sha256,
    "serve_state.open": lambda: hashlib.sha256(serve_state("open").encode()).hexdigest(),
    "serve_state.closed": lambda: hashlib.sha256(serve_state("closed").encode()).hexdigest(),
    "seven_queries.plain": lambda: hashlib.sha256(seven_query_state(False).encode()).hexdigest(),
    "seven_queries.observed": lambda: hashlib.sha256(seven_query_state(True).encode()).hexdigest(),
}

#: ``fault_sweeps`` entry → :func:`sweep_report` arguments, i.e. ``fault-sweep``
#: flags; ``mixed`` and ``serve`` run their ``DEFAULT_ROWS``.
FAULT_SWEEPS: Dict[str, Dict[str, Any]] = {
    "mixed": dict(seeds=(1, 2, 3), intervals=2, txns_per_query=15),
    "defrag": dict(seeds=(1, 2, 3), intervals=3, txns_per_query=20, rows=("defrag_mid_query=1.0",)),
    "crash": dict(
        workload="crash", seeds=(1, 2, 3), intervals=6, txns_per_query=20, checkpoint_every=24
    ),
    "serve": dict(workload="serve", seeds=(1, 2), txns_per_query=12),
    "cluster": dict(workload="cluster", seeds=(1, 2, 3), shards=2, intervals=2, txns_per_query=20),
}

#: Baseline id → producer; the id names the file ``baselines/<id>.json``.
BASELINES: Dict[str, Callable[[], Any]] = {
    "figures": _figures,
    "pins": lambda: {name: pin() for name, pin in PINS.items()},
    "fault_sweeps": lambda: {name: sweep_report(**kw) for name, kw in FAULT_SWEEPS.items()},
    "profile": _profile,
    "cluster_jobs": _cluster_jobs,
    "serve_ablation": run_serve_ablation,
    "roofline": lambda: run_roofline(
        ("ddr5", "hbm3", "lpddr5x-pim"), sizes=(4096, 16384, 65536),
        micro_sizes=(8, 64, 1024, 16384, 65536), block_rows=256,
    ),
    "cluster_scaling": lambda: run_cluster_bench(
        shard_counts=(1, 2, 4), remote_fractions=(0.0, 1.0, 2.0, 4.0),
        intervals=4, txns_per_query=60, scale=2e-5, seed=11,
        interconnect_ns=500.0, defrag_period=200,
    ),
}


def regenerate(baseline_id: str) -> Any:
    """One row's output as plain JSON values, the form its file holds."""
    return json.loads(json.dumps(BASELINES[baseline_id]()))


def diff(expected: Any, actual: Any, path: str = "") -> List[str]:
    """Exact recursive diff: the paths (``a.b[2].c``) where two values differ.

    A key or list item present on one side only differs; leaves must have
    the same type and compare equal, so floats must be bit-equal and ``0``
    is not ``0.0``. Empty means identical.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        keys = sorted(set(expected) | set(actual))
        children = [(key, f"{path}.{key}" if path else key) for key in keys]
    elif isinstance(expected, list) and isinstance(actual, list):
        indices = range(max(len(expected), len(actual)))
        children = [(i, f"{path}[{i}]") for i in indices]
    else:
        return [] if expected == actual and type(expected) is type(actual) else [path]
    drifts: List[str] = []
    for key, child in children:
        try:
            drifts += diff(expected[key], actual[key], child)
        except (KeyError, IndexError):  # present on one side only
            drifts.append(child)
    return drifts
