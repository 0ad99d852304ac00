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
``tests/test_baselines.py`` runs every row except ``figures``.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List

from repro.bench.roofline import run_roofline
from repro.cluster import cluster_row_counts
from repro.experiments.cluster import _run_cell, run_cluster_bench
from repro.experiments.figures import FIGURES, as_json
from repro.pim.substrate import available_substrates, get_substrate
from repro.serve.runner import run_serve_ablation
from repro.trace.profile import run_profile

__all__ = ["BASELINES", "diff", "regenerate"]


def _figures() -> Dict[str, Dict[str, list]]:
    """Every figure's points on every registered substrate."""
    return {
        substrate: {
            figure_id: as_json(figure.points(get_substrate(substrate).config))
            for figure_id, figure in FIGURES.items()
        }
        for substrate in available_substrates()
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


#: Baseline id → producer; the id names the file ``baselines/<id>.json``.
BASELINES: Dict[str, Callable[[], Any]] = {
    "figures": _figures,
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
