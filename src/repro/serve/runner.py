"""Serve-run and ablation entry points (the ``serve`` experiment).

:func:`run_serve` builds a fresh engine from the seed and drives one
:class:`~repro.serve.loop.ServeLoop`; with identical arguments the JSON
report it returns is bit-for-bit identical across runs (the CI smoke
step diffs two runs).  :func:`run_policy_ablation` sweeps arrival rate ×
scheduler policy over identically built engines, which isolates the
policy: every cell sees the same offered request sequences, so the
``batched``-vs-``naive`` OLAP throughput gap is explained by the
controller's ``handovers_saved`` counter rather than by workload noise.
:func:`run_serve_ablation` is the pinned experiment: both sweeps at one
parameter set, its defaults.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.core.engine import PushTapEngine
from repro.errors import ConfigError
from repro.serve.loop import ServeConfig, ServeLoop, ServeResult
from repro.serve.scheduler import POLICIES

__all__ = [
    "build_serve_engine",
    "run_serve",
    "run_policy_ablation",
    "run_ivm_ablation",
    "run_serve_ablation",
]


def build_serve_engine(
    seed: int,
    scale: float = 2e-5,
    controller_kind: str = "pushtap",
    defrag_period: int = 400,
) -> PushTapEngine:
    """The engine every serve run / ablation cell starts from."""
    return PushTapEngine.build(
        scale=scale,
        seed=seed,
        controller_kind=controller_kind,
        defrag_period=defrag_period,
        block_rows=256,
    )


def run_serve(
    config: ServeConfig,
    engine: Optional[PushTapEngine] = None,
    scale: float = 2e-5,
    controller_kind: str = "pushtap",
    invariant_checker=None,
) -> ServeResult:
    """One serve run over a freshly built (or supplied) engine."""
    if engine is None:
        engine = build_serve_engine(
            config.seed, scale=scale, controller_kind=controller_kind
        )
    loop = ServeLoop(engine, config, invariant_checker=invariant_checker)
    return loop.run()


def _ablation_cell(
    scale: float,
    fields: Dict[str, object],
    extra: Callable[[Dict[str, object]], Dict[str, object]],
    **config,
) -> Dict[str, object]:
    """One ablation cell: an open-loop serve run with admission limits
    effectively off (deep queues, no rate limiter). The cell is
    ``fields``, the report fields every sweep keeps, and ``extra`` of
    the report."""
    r = run_serve(
        ServeConfig(arrival="open", queue_depth=1_000_000, bucket_rate=0.0, **config),
        scale=scale,
    ).report
    return {
        **fields,
        "olap_qphh": r["throughput"]["olap_qphh"],
        "olap_qphh_busy": r["throughput"]["olap_qphh_busy"],
        "oltp_tpmc": r["throughput"]["oltp_tpmc"],
        "olap_time_ns": r["engine"]["olap_time_ns"],
        "simulated_time_ns": r["simulated_time_ns"],
        "queries": r["engine"]["queries"],
        "olap_batches": r["scheduler"]["olap_batches"],
        "max_staleness_txns": r["freshness"]["max_staleness_txns"],
        "slo_errors": r["slo_errors"],
        **extra(r),
    }


def run_policy_ablation(
    *,
    seed: int,
    tenants: int,
    requests_per_tenant: int,
    olap_fraction: float,
    scale: float,
    rates: Sequence[float] = (10_000.0, 50_000.0, 200_000.0),
    policies: Sequence[str] = POLICIES,
) -> Dict[str, object]:
    """Arrival rate × scheduler policy sweep; returns the report dict.

    Admission limits are effectively disabled (deep queues, no rate
    limiter): the sweep measures *scheduling*, and shedding different
    requests under different policies would make the cells incomparable.
    Every cell rebuilds the engine from ``seed``, so cells differ only
    in policy and offered rate.
    """

    def extra(r):
        scheduler = r["scheduler"]
        return {
            "mode_batches": scheduler["mode_batches"],
            "handovers": scheduler["handovers"],
            "handovers_saved": scheduler["handovers_saved"],
        }

    cells = [
        _ablation_cell(
            scale,
            {"rate_per_tenant": rate, "policy": policy},
            extra,
            tenants=tenants,
            requests_per_tenant=requests_per_tenant,
            policy=policy,
            seed=seed,
            rate_per_tenant=rate,
            olap_fraction=olap_fraction,
        )
        for rate in rates
        for policy in policies
    ]
    return {
        "experiment": "serve-policy-ablation",
        "seed": seed,
        "tenants": tenants,
        "requests_per_tenant": requests_per_tenant,
        "olap_fraction": olap_fraction,
        "rates": list(rates),
        "policies": list(policies),
        "cells": cells,
    }


def run_ivm_ablation(
    *,
    seed: int,
    tenants: int,
    requests_per_tenant: int,
    olap_fraction: float,
    scale: float,
    rates: Sequence[float] = (10_000.0, 50_000.0, 200_000.0),
    policy: str = "freshness",
    freshness_sla_txns: int = 8,
) -> Dict[str, object]:
    """Arrival rate × {rescan, incremental} sweep at one policy.

    Same isolation discipline as :func:`run_policy_ablation`: every cell
    rebuilds the engine from ``seed`` and sees identical offered request
    sequences, so the QphH and snapshot-lag deltas per rate are
    explained entirely by the per-flush apply-deltas-vs-rescan decision.

    The default cell runs the ``freshness`` policy with a deliberately
    tight staleness SLA: the flush trigger is then the staleness bound
    itself, so both modes hold the same max snapshot lag and the sweep
    isolates what incremental maintenance is for — keeping a tight
    freshness bound affordable.  (Under count-driven policies the flush
    cadence is fixed and the lag axis only shows interleaving noise.)
    """

    def extra(r):
        ivm, freshness = r["scheduler"]["ivm"], r["freshness"]
        return {
            "ivm_flushes": ivm["ivm_flushes"],
            "rescan_flushes": ivm["rescan_flushes"],
            "ivm_queries": ivm["ivm_queries"],
            "mean_staleness_txns": freshness["mean_staleness_txns"],
            "max_snapshot_lag_ns": freshness["max_snapshot_lag_ns"],
            "mean_snapshot_lag_ns": freshness["mean_snapshot_lag_ns"],
        }

    cells = [
        _ablation_cell(
            scale,
            {"rate_per_tenant": rate, "mode": "incremental" if ivm else "rescan"},
            extra,
            tenants=tenants,
            requests_per_tenant=requests_per_tenant,
            policy=policy,
            seed=seed,
            rate_per_tenant=rate,
            olap_fraction=olap_fraction,
            freshness_sla_txns=freshness_sla_txns,
            ivm=ivm,
        )
        for rate in rates
        for ivm in (False, True)
    ]
    # Per-rate deltas: incremental minus rescan, the ablation's headline.
    deltas = []
    for rate in rates:
        rescan = next(
            c for c in cells
            if c["rate_per_tenant"] == rate and c["mode"] == "rescan"
        )
        incremental = next(
            c for c in cells
            if c["rate_per_tenant"] == rate and c["mode"] == "incremental"
        )
        deltas.append(
            {
                "rate_per_tenant": rate,
                "olap_qphh_delta": incremental["olap_qphh"] - rescan["olap_qphh"],
                "olap_qphh_ratio": (
                    incremental["olap_qphh"] / rescan["olap_qphh"]
                    if rescan["olap_qphh"]
                    else 0.0
                ),
                "oltp_tpmc_delta": incremental["oltp_tpmc"] - rescan["oltp_tpmc"],
                "max_staleness_delta": (
                    incremental["max_staleness_txns"] - rescan["max_staleness_txns"]
                ),
                "max_snapshot_lag_delta_ns": (
                    incremental["max_snapshot_lag_ns"]
                    - rescan["max_snapshot_lag_ns"]
                ),
            }
        )
    return {
        "experiment": "serve-ivm-ablation",
        "seed": seed,
        "tenants": tenants,
        "requests_per_tenant": requests_per_tenant,
        "olap_fraction": olap_fraction,
        "policy": policy,
        "freshness_sla_txns": freshness_sla_txns,
        "rates": list(rates),
        "cells": cells,
        "deltas": deltas,
    }


def run_serve_ablation(
    seed: int = 7,
    tenants: int = 2,
    requests_per_tenant: int = 32,
    olap_fraction: float = 0.3,
    scale: float = 2e-5,
) -> Dict[str, object]:
    """The serve ablation: :func:`run_policy_ablation`'s report with
    :func:`run_ivm_ablation`'s under ``"ivm"``, both at these parameters.

    Its defaults are the parameters ``baselines/serve_ablation.json``
    pins. A non-positive ``olap_fraction`` is refused: with no queries
    every cell's QphH is 0 and the ablation measures nothing.
    """
    if olap_fraction <= 0:
        raise ConfigError("olap_fraction must be > 0 for an ablation")
    params = dict(
        seed=seed,
        tenants=tenants,
        requests_per_tenant=requests_per_tenant,
        olap_fraction=olap_fraction,
        scale=scale,
    )
    return {**run_policy_ablation(**params), "ivm": run_ivm_ablation(**params)}
