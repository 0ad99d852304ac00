"""Scale ladder agreement: per-transaction simulated costs do not depend
on the scale the tables were built at (DESIGN.md §1)."""

import pytest

from repro.core.engine import PushTapEngine

#: The e2e benchmark's transaction mix (``benchmarks/e2e/workloads.py``).
TXN_MIX = dict(payment_fraction=0.45, delivery_fraction=0.10)

#: Each term's mean may differ by this share between the two rungs.
BAND = 0.10

#: ``chain`` falls with scale (0.30 → 0.10 µs per transaction from 3e-4
#: to 3e-3): the same updates spread over more rows, so fewer find a
#: version chain to walk. It is under 1 % of a transaction.
EXEMPT = {"chain"}


def term_means(engine):
    """Each ``TxnBreakdown`` term's mean (ns) over the committed
    transactions of one fixed 300-transaction stream (driver seed 8)."""
    results = engine.run_transactions(300, engine.make_driver(seed=8, **TXN_MIX))
    committed = [result.breakdown.as_dict() for result in results if not result.aborted]
    return {term: sum(row[term] for row in committed) / len(committed) for term in committed[0]}


def test_breakdown_terms_are_scale_free():
    """3e-4 against 3e-3: ten times the rows, the same per-transaction
    charges. The index charge in particular must not grow with its table."""
    small, large = (term_means(PushTapEngine.build(scale=s, seed=7)) for s in (3e-4, 3e-3))
    assert small.keys() == large.keys() and "index" in small
    for term in small.keys() - EXEMPT:
        assert large[term] == pytest.approx(small[term], rel=BAND), term
