"""Shared fixtures and reporting helpers for the benchmark suite.

Every figure benchmark prints the series the paper's figure reports
(through :func:`emit`, which bypasses pytest's capture so the rows land
in ``bench_output.txt``) and times the figure with pytest-benchmark.
"""

from __future__ import annotations

import pytest

from repro.core.engine import PushTapEngine

#: Build parameters for functional benchmarks (small but non-trivial).
BENCH_ENGINE_KWARGS = dict(
    scale=5e-5,
    defrag_period=500,
    block_rows=256,
    # Benchmarks replay thousands of inserting transactions on the shared
    # engine; give every table generous append capacity.
    extra_rows=40_000,
)


@pytest.fixture(scope="session")
def bench_engine() -> PushTapEngine:
    """A loaded engine with a transaction history, shared read-only."""
    engine = PushTapEngine.build(**BENCH_ENGINE_KWARGS)
    engine.run_transactions(100, engine.make_driver(seed=17))
    return engine


@pytest.fixture()
def emit(capsys):
    """Print a report section, bypassing pytest's output capture."""

    def _emit(body: str) -> None:
        with capsys.disabled():
            print(f"\n{body}")

    return _emit
