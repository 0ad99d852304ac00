"""Shared fixtures for the test suite.

The full engine is expensive to build, so a handful of session-scoped
engines are shared by read-only tests; tests that mutate state build
their own (see ``fresh_engine``).
"""

from __future__ import annotations

import pytest

from repro.core.engine import PushTapEngine

def unit_work(units):
    """DRAM bytes moved and elements processed, as the units' counters hold
    them: what a test double's ``ChunkedOperation.work()`` diffs."""
    return (
        sum(u.stats.dram_bytes_read + u.stats.dram_bytes_written for u in units),
        sum(u.stats.elements_processed for u in units),
    )


#: Small but non-trivial build parameters shared by engine fixtures.
ENGINE_KWARGS = dict(scale=2e-5, defrag_period=200, block_rows=256)


@pytest.fixture(scope="session")
def loaded_engine() -> PushTapEngine:
    """A freshly loaded engine no test may mutate."""
    return PushTapEngine.build(**ENGINE_KWARGS)


@pytest.fixture(scope="session")
def worked_engine() -> PushTapEngine:
    """An engine that has executed a transaction mix (shared, read-only)."""
    engine = PushTapEngine.build(**ENGINE_KWARGS)
    engine.run_transactions(60, engine.make_driver(seed=3))
    return engine


@pytest.fixture()
def fresh_engine() -> PushTapEngine:
    """A private engine for tests that mutate state."""
    return PushTapEngine.build(**ENGINE_KWARGS)
