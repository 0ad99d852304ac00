"""Seed-driven fault schedules.

A :class:`FaultPlan` owns one independent random stream per *hook point*
(a named location in the engine where a fault class can strike), derived
from a single seed via CRC-32 of the hook name — the same per-name
derivation :mod:`repro.workloads.tpcc_gen` uses for table streams. Two
plans built from the same seed and rates produce the *identical* fault
schedule for the identical sequence of hook consultations, which is what
makes a faulted run replayable: no wall-clock randomness is involved.

Hooks whose rate is zero never consume randomness, so enabling one fault
class does not perturb the schedule of another.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "HOOKS",
    "DROP_LAUNCH",
    "DUPLICATE_LAUNCH",
    "GARBLE_LAUNCH",
    "POLL_NOT_DONE",
    "CHUNK_REISSUE",
    "INTERRUPT_OFFLOAD",
    "FORCED_ABORT",
    "DELTA_EXHAUSTION",
    "DEFRAG_MID_QUERY",
    "CLIENT_DISCONNECT",
    "QUEUE_OVERFLOW",
    "SCHEDULER_STALL",
    "CRASH_BEFORE_WAL_APPEND",
    "CRASH_AFTER_WAL_APPEND",
    "CRASH_MID_CHECKPOINT",
    "CRASH_HOOKS",
    "TWOPC_COORDINATOR_CRASH",
    "TWOPC_PARTICIPANT_TIMEOUT",
    "TWOPC_LOST_PREPARE",
    "TWOPC_HOOKS",
    "FaultRates",
    "FaultPlan",
]

#: Controller: a launch write vanishes before reaching the scheduler.
DROP_LAUNCH = "drop_launch"
#: Controller: the scheduler receives the same launch write twice.
DUPLICATE_LAUNCH = "duplicate_launch"
#: Controller: the launch payload arrives corrupted (bad Fig. 7b encoding).
GARBLE_LAUNCH = "garble_launch"
#: Controller: the polling module answers "not done" N extra times.
POLL_NOT_DONE = "poll_not_done"
#: Executor: a WRAM compute chunk must be re-issued.
CHUNK_REISSUE = "chunk_reissue"
#: Executor: the offload is interrupted at a chunk boundary.
INTERRUPT_OFFLOAD = "interrupt_offload"
#: OLTP: concurrency control force-aborts the transaction (abort storm).
FORCED_ABORT = "forced_abort"
#: OLTP: the delta region reports exhaustion mid-transaction.
DELTA_EXHAUSTION = "delta_exhaustion"
#: Engine: defragmentation triggers in the middle of a query interval.
DEFRAG_MID_QUERY = "defrag_mid_query"
#: Serve: the client vanishes mid-transaction; its writes must roll back.
CLIENT_DISCONNECT = "client_disconnect"
#: Serve: the admission queue spuriously reports overflow (request shed).
QUEUE_OVERFLOW = "queue_overflow"
#: Serve: the HTAP scheduler misses its dispatch tick(s); OLAP backs up.
SCHEDULER_STALL = "scheduler_stall"
#: Durability: the process dies before the commit record reaches the WAL.
CRASH_BEFORE_WAL_APPEND = "crash_before_wal_append"
#: Durability: the process dies right after the WAL append is durable.
CRASH_AFTER_WAL_APPEND = "crash_after_wal_append"
#: Durability: the process dies after spilling a checkpoint segment but
#: before the manifest rename makes it reachable.
CRASH_MID_CHECKPOINT = "crash_mid_checkpoint"
#: Cluster 2PC: the coordinator goes silent after collecting the votes
#: but before the decision reaches any participant (presumed abort).
TWOPC_COORDINATOR_CRASH = "twopc_coordinator_crash"
#: Cluster 2PC: a participant's vote never arrives; the coordinator's
#: timeout expires and the transaction aborts globally.
TWOPC_PARTICIPANT_TIMEOUT = "twopc_participant_timeout"
#: Cluster 2PC: a prepare request is lost in the interconnect — the
#: participant never even executes; coordinator timeout, global abort.
TWOPC_LOST_PREPARE = "twopc_lost_prepare"

#: Every hook point threaded through the engine, in documentation order.
HOOKS: Tuple[str, ...] = (
    DROP_LAUNCH,
    DUPLICATE_LAUNCH,
    GARBLE_LAUNCH,
    POLL_NOT_DONE,
    CHUNK_REISSUE,
    INTERRUPT_OFFLOAD,
    FORCED_ABORT,
    DELTA_EXHAUSTION,
    DEFRAG_MID_QUERY,
    CLIENT_DISCONNECT,
    QUEUE_OVERFLOW,
    SCHEDULER_STALL,
    CRASH_BEFORE_WAL_APPEND,
    CRASH_AFTER_WAL_APPEND,
    CRASH_MID_CHECKPOINT,
    TWOPC_COORDINATOR_CRASH,
    TWOPC_PARTICIPANT_TIMEOUT,
    TWOPC_LOST_PREPARE,
)

#: The process-death hooks; each kills the run with a
#: :class:`~repro.errors.SimulatedCrash` instead of a recoverable fault.
CRASH_HOOKS: Tuple[str, ...] = (
    CRASH_BEFORE_WAL_APPEND,
    CRASH_AFTER_WAL_APPEND,
    CRASH_MID_CHECKPOINT,
)

#: The cluster two-phase-commit hooks; every one resolves to a
#: deterministic global abort (presumed-abort keeps atomicity).
TWOPC_HOOKS: Tuple[str, ...] = (
    TWOPC_COORDINATOR_CRASH,
    TWOPC_PARTICIPANT_TIMEOUT,
    TWOPC_LOST_PREPARE,
)


@dataclass(frozen=True)
class FaultRates:
    """Per-hook injection probabilities, each in ``[0, 1]``.

    Constructed from a ``{hook: rate}`` mapping or by :meth:`parse` (the
    CLI's ``--rates drop_launch=0.05,...`` form). Unknown hook names raise
    :class:`~repro.errors.ConfigError` so typos cannot silently disable a
    fault class.
    """

    rates: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for hook, rate in self.rates.items():
            if hook not in HOOKS:
                raise ConfigError(
                    f"unknown fault hook {hook!r}; known hooks: {', '.join(HOOKS)}"
                )
            if not 0.0 <= float(rate) <= 1.0:
                raise ConfigError(f"fault rate {hook}={rate} outside [0, 1]")

    @classmethod
    def parse(cls, spec: str) -> "FaultRates":
        """Parse the CLI form ``hook=rate,hook=rate,...``."""
        rates: Dict[str, float] = {}
        for item in filter(None, (part.strip() for part in spec.split(","))):
            if "=" not in item:
                raise ConfigError(f"fault rate {item!r} is not of the form hook=rate")
            hook, _, value = item.partition("=")
            try:
                rates[hook.strip()] = float(value)
            except ValueError:
                raise ConfigError(f"fault rate {item!r} has a non-numeric rate") from None
        return cls(rates)

    def rate(self, hook: str) -> float:
        """The injection probability of ``hook`` (0.0 when unconfigured)."""
        if hook not in HOOKS:
            raise ConfigError(f"unknown fault hook {hook!r}")
        return float(self.rates.get(hook, 0.0))

    @property
    def active_hooks(self) -> Tuple[str, ...]:
        """Hooks with a nonzero rate, in canonical order."""
        return tuple(h for h in HOOKS if self.rate(h) > 0.0)


class FaultPlan:
    """Decides which hook consultations inject a fault, reproducibly.

    ``draw(hook)`` is called once per hook consultation; it returns True
    when a fault should be injected there. The decision sequence of each
    hook is a pure function of ``(seed, hook, rate)``, so re-running the
    same workload under the same plan parameters replays the same fault
    schedule — the property the determinism tests lock in.
    """

    def __init__(self, seed: int, rates: Optional[FaultRates] = None) -> None:
        self.seed = int(seed)
        self.rates = rates or FaultRates()
        self._streams: Dict[str, np.random.RandomState] = {}
        self._draws: Dict[str, int] = {h: 0 for h in HOOKS}
        #: Injected faults as ``(hook, draw_index)`` pairs, in injection
        #: order per hook — the comparable "fault schedule" of one run.
        self.schedule: List[Tuple[str, int]] = []

    def _stream(self, hook: str) -> np.random.RandomState:
        stream = self._streams.get(hook)
        if stream is None:
            derived = (self.seed ^ zlib.crc32(hook.encode("ascii"))) & 0x7FFF_FFFF
            stream = self._streams[hook] = np.random.RandomState(derived)
        return stream

    def draw(self, hook: str) -> bool:
        """One consultation of ``hook``: inject here?

        Zero-rate hooks return False without consuming randomness, so
        the schedules of active hooks are independent of which other
        hooks exist in the run.
        """
        rate = self.rates.rate(hook)
        if rate <= 0.0:
            return False
        index = self._draws[hook]
        self._draws[hook] = index + 1
        fired = bool(self._stream(hook).random_sample() < rate)
        if fired:
            self.schedule.append((hook, index))
        return fired

    def draw_int(self, hook: str, low: int, high: int) -> int:
        """A deterministic integer in ``[low, high]`` from ``hook``'s stream.

        Used for fault magnitudes (e.g. how many extra not-done polls a
        :data:`POLL_NOT_DONE` fault delivers).
        """
        if low > high:
            raise ConfigError(f"draw_int bounds inverted: [{low}, {high}]")
        return int(self._stream(hook).randint(low, high + 1))

    def content_hash(self) -> str:
        """SHA-256 over the plan's determinism surface (seed + rates).

        Two plans with equal hashes replay identical fault schedules for
        identical consultation sequences; sweep reports carry the hash so
        a result can be traced back to the exact plan that produced it.
        """
        canonical = f"seed={self.seed};" + ",".join(
            f"{hook}={self.rates.rate(hook):.17g}"
            for hook in self.rates.active_hooks
        )
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()
