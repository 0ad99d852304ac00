"""Smoke test of the end-to-end benchmark (a few minutes; not tier-1).

Run it with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py``.
It drives ``run.py`` the way the benchmark driver does — one process per
workload, the result on the last line of stdout — at ``--quick`` size.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, seed: int, trace: int, tmp_path: Path) -> dict:
    out = tmp_path / f"{workload}_{seed}_{trace}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == KEYS and last["correct"] is True
    assert last["attempted"] >= 1 and last["failed"] == 0
    return {"last": last, "full": json.loads(out.read_text(encoding="utf-8"))}


def assert_declared(metrics: dict, declared: list) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_digests(workload: str, tmp_path: Path) -> None:
    first = run(workload, 7, 0, tmp_path)
    assert_declared(first["last"]["metrics"], CONTRACT["end_to_end"])
    assert all(m["value"] > 0 for m in first["last"]["metrics"].values())
    again = run(workload, 7, 0, tmp_path)
    other = run(workload, 8, 0, tmp_path)
    assert first["full"]["sim_digest"] == again["full"]["sim_digest"]
    assert first["full"]["sim_digest"] != other["full"]["sim_digest"]
    simulated = {n: v for n, v in first["full"]["metrics"].items() if n.startswith("sim_")}
    assert simulated == {n: again["full"]["metrics"][n] for n in simulated}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass(workload: str, tmp_path: Path) -> None:
    traced = run(workload, 7, 1, tmp_path)
    assert_declared(traced["last"]["metrics"], CONTRACT["per_layer"])
    full = traced["full"]
    assert full["trace"]["unresolved"] == []
    assert full["metrics"]["bench.trace_overhead_ratio"] > 0
    events = json.loads(Path(full["trace"]["file"]).read_text(encoding="utf-8"))["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)


def test_fails_without_the_program(tmp_path: Path) -> None:
    """In a directory holding only the benchmark it must fail, printing no result."""
    (tmp_path / "benchmarks" / "e2e").mkdir(parents=True)
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "benchmarks" / "e2e" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""
