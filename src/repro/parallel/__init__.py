"""Parallel shard execution for cluster workloads.

The cluster model is embarrassingly parallel between coordination
points: each shard engine is an independent serial machine, and the
workload's global interleaving is fully determined by the seeded
drivers and the seeded fault plan — not by execution timing. The
``repro.parallel`` layer exploits that in three deterministic passes:

1. :mod:`~repro.parallel.plan` replays the workload's *decision* loop
   on the coordinator without executing any engine, producing one
   operation sub-stream per shard plus a global record list (including
   every 2PC fault decision, drawn from the plan ahead of time).
2. :mod:`~repro.parallel.worker` executes each shard's sub-stream in a
   process-pool worker forked from the coordinator, which inherits the
   run (engines, checkers) rather than rebuilding it.
3. :mod:`~repro.parallel.merge` re-applies the per-shard results on
   the coordinator in the *sequential* interleaving order, so every
   report, histogram and outcome log is byte-identical to a ``jobs=1``
   run.

Telemetry records on the coordinator only: each simulated metric
belongs on the one timeline of the in-process loop, so ``jobs > 1``
refuses a recording registry (:mod:`~repro.parallel.runner`).
"""

from repro.parallel.runner import run_parallel_cluster_workload

__all__ = ["run_parallel_cluster_workload"]
