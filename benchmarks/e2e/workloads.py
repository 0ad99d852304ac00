"""The five HTAP workloads and the loops that time them.

Two clocks are read here. *Host* time is what it costs to run the
simulator: the CPU time of this thread (``time.thread_time``) around the
calls into the program. *Simulated* time is what the program reports for
the modelled PIM system (ns).

Every workload runs a fixed number of operations derived from the
requested seconds (``Size``), not a deadline: the simulator is
deterministic, so with counts fixed every simulated number repeats
exactly for a seed, and a change that only makes the host faster must
leave them identical. On the reference host the primary phase of each
workload lasts about the requested seconds.

Each workload has a *primary* phase that stresses its layers. The
benchmark contract wants every end-to-end metric from every workload,
so where the primary phase cannot observe a metric (per-call host
latency inside ``ServeLoop.run()``, query latency on a transaction-only
run) a short *probe* phase issues those calls directly against the
instance the primary phase left behind. Primary numbers always win;
README.md lists which phase feeds which metric.

The sandbox this runs in shares its cores, and its neighbours disturb a
measurement in two ways. They *preempt* the process for milliseconds at
a time: that is why host time is thread CPU time, which for this
single-threaded, I/O-free program equals wall-clock time on an idle host
and does not count the time spent descheduled. And a contended core runs
everything about 1.5 times *slower*, for a second or for minutes:
``Calibration`` therefore runs a small fixed kernel between the timed
calls, and every host time is divided by how much slower than on the
quiet reference host that kernel ran right next to it (ROADMAP item 1d:
ratios against an in-run calibration loop). Only the one call that runs
on worker processes (``cluster_2pc`` at jobs=2) is timed in wall-clock.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import signal
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import PushTapEngine, telemetry
from repro.cluster import ClusterWorkload, PushTapCluster, cluster_row_counts
from repro.faults.invariants import InvariantChecker
from repro.serve import ServeConfig, ServeLoop

from oracle import q1_q6_reference
from trace import Tracer

__all__ = ["WORKLOADS", "Size", "run_end_to_end", "run_traced"]

#: Host time: CPU seconds of this thread.
clock = time.thread_time

#: payment / new-order / delivery = .45 / .45 / .10
TXN_MIX = dict(payment_fraction=0.45, delivery_fraction=0.10)
HTAP_QUERIES = ("Q1", "Q6", "Q9")
SCAN_QUERIES = ("Q1", "Q6", "Q9", "Q4", "Q12", "Q14", "Q17")
TENANTS = 4
SHARDS = 4
NS_PER_MIN = 60e9
NS_PER_HOUR = 3600e9


@dataclass(frozen=True)
class Size:
    """How much work one run does.

    ``seconds`` scales the primary phases (operations per requested
    second, sized on the reference host); the probes and the warm-up
    keep their size, since they exist to collect a fixed sample count.
    ``quick`` is the smoke size: not comparable with a full run.
    """

    seconds: float
    quick: bool = False

    def ops(self, per_second: float) -> int:
        return max(1, round(per_second * self.seconds))

    def fixed(self, full: int, quick: int) -> int:
        return quick if self.quick else full


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Calibration:
    """The in-run calibration loop: a fixed kernel sampled between the
    timed calls, never inside one.

    The sandbox shares its cores: a contended core runs everything about
    1.5 times slower, for a second or for minutes. The kernel's time next
    to an operation says which state the host was in, and the operation's
    host time is divided by that slowdown.

    The kernel mixes what the simulator spends host time on — small NumPy
    slice assignments and dict updates (device writes, MVCC bookkeeping),
    plain interpreter arithmetic, a gather and a reduction over 256 KiB —
    because contention does not slow these by the same factor. Its
    working set stays small, so the program's own cache footprint (which
    a later change may shrink) hardly moves it.
    """

    #: Median kernel time on the quiet reference host (s).
    REFERENCE_S = 0.000175

    def __init__(self) -> None:
        #: Kernel samples taken on the measuring thread: when, how long.
        self.at: List[float] = []
        self.seconds: List[float] = []
        #: Kernel samples taken from a timer signal during long calls.
        self.seconds_during: List[float] = []
        self._buf = np.zeros(1024, dtype=np.uint8)
        self._rows = [np.arange(i, i + 8, dtype=np.uint8) for i in range(8)]
        self._column = np.arange(1 << 15, dtype=np.int64)
        self._picks = (np.arange(1 << 12) * 7919) % (1 << 15)

    def _work(self) -> int:
        buf, rows, column, picks = self._buf, self._rows, self._column, self._picks
        table: Dict[Tuple[int, int], int] = {}
        total = 0
        for i in range(200):
            offset = (i * 8) & 0x3F8
            buf[offset:offset + 8] = rows[i & 7]
            table[(i, offset)] = total
            total += len(table)
        for i in range(1000):
            total += i * i % 7
        return total + int(column[picks].sum()) + int((column > total).sum())

    def kernel(self) -> Tuple[float, float]:
        """Run the kernel once: (when, seconds) on the caller's clock.

        An untimed pass goes first, so the timed one finds its working
        set in cache whatever the program did just before. The collector
        is held off for the timed pass: the kernel's few allocations
        would otherwise now and then trip a collection of the program's
        whole heap and be charged for it.
        """
        self._work()
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            self._work()
            t1 = clock()
        finally:
            if collecting:
                gc.enable()
        return (t0 + t1) / 2, t1 - t0

    def sample(self) -> None:
        at, seconds = self.kernel()
        self.at.append(at)
        self.seconds.append(seconds)

    @contextmanager
    def sampling(self, every_s: float = 0.02) -> Iterator[List[float]]:
        """Sample the kernel every ``every_s`` while one long call runs,
        from a timer signal; yields ``[kernel seconds..]`` with the host
        seconds the sampling itself took in front.

        Python runs the handler on the main thread between two bytecodes
        of the call, so the kernel sees the core the call runs on, in
        the state the call leaves it in — as it does between the
        operations of a benchmark-owned loop. (A sampler *thread* wakes
        on the idle core, which is slow for its own reasons.)
        """
        seconds: List[float] = [0.0]

        def on_timer(signum, frame) -> None:
            t0 = clock()
            seconds.append(self.kernel()[1])
            seconds[0] += clock() - t0

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
        try:
            yield seconds
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.seconds_during += seconds[1:]

    def slowdown(self, seconds: Optional[Sequence[float]] = None) -> float:
        """Median slowdown over ``seconds`` (default: every sample taken);
        1.0 on the quiet reference host."""
        if seconds is None:
            seconds = self.seconds + self.seconds_during
        return statistics.median(seconds) / self.REFERENCE_S

    def slowdown_at(self, times: Sequence[float]) -> np.ndarray:
        """The slowdown next to each of ``times``: the kernel samples,
        median-filtered over three to drop a lone spike, interpolated."""
        seconds = np.asarray(self.seconds)
        padded = np.concatenate((seconds[:1], seconds, seconds[-1:]))
        smooth = np.median(np.stack((padded[:-2], padded[1:-1], padded[2:])), axis=0)
        return np.interp(times, self.at, smooth) / self.REFERENCE_S


@dataclass
class Leg:
    """One pass over a workload: its inputs and how it is observed."""

    seed: int
    size: Size
    #: Set-ups to time (the median is reported, the last one is used).
    builds: int = 1
    #: Whether to run the probe phases (the end-to-end pass does).
    probes: bool = True
    tracer: Optional[Tracer] = None
    #: Worker processes for cluster_2pc.
    jobs: int = 2
    calib: Calibration = field(default_factory=Calibration)

    def operation(self, kind: str):
        return self.tracer.operation(kind) if self.tracer else nullcontext()

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()


class Series:
    """The operations of one kind in one phase: when each started, its
    host seconds, its simulated nanoseconds."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.host: List[float] = []
        self.sim: List[float] = []

    def add(self, at: float, host_s: float, sim_ns: float) -> None:
        self.at.append(at)
        self.host.append(host_s)
        self.sim.append(sim_ns)

    def __len__(self) -> int:
        return len(self.host)


def steady_host_s(ops: Series, blocks: int = 10) -> float:
    """Host seconds of ``ops``, steadied: the operation count times the
    median, over ``blocks`` equal runs of consecutive operations, of the
    mean host time per operation. A hiccup of half a second in one call
    moves a plain total; it does not move the median block."""
    edges = np.linspace(0, len(ops), min(blocks, len(ops)) + 1).astype(int)
    per_op = np.add.reduceat(np.asarray(ops.host), edges[:-1]) / np.diff(edges)
    return len(ops) * float(np.median(per_op))


class Samples:
    """What one benchmark-owned phase measured, operation by operation."""

    def __init__(self) -> None:
        self.txns = Series()  # execute_transaction calls
        self.queries = Series()  # query calls
        self.defrags = Series()  # defragment() calls
        self.committed = 0
        self.aborted = 0
        #: Transactions committed before each query since the one before.
        self.staleness: List[int] = []
        #: sha256 over every query answer, in order.
        self.answers = hashlib.sha256()

    def to_reference_host(self, calib: Calibration) -> None:
        """Divide every host time by the slowdown measured next to it."""
        for series in (self.txns, self.queries, self.defrags):
            if series:
                series.host = (np.asarray(series.host) / calib.slowdown_at(series.at)).tolist()

    @property
    def host_s(self) -> float:
        """Host seconds inside this phase's operations."""
        return sum(self.txns.host) + sum(self.queries.host) + sum(self.defrags.host)

    @property
    def sim_ns(self) -> float:
        return sum(self.txns.sim) + sum(self.queries.sim) + sum(self.defrags.sim)

    @property
    def attempted(self) -> int:
        return len(self.txns) + len(self.queries)

    def metrics(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """The end-to-end metrics this phase can speak for, and the
        sample count behind each."""
        m: Dict[str, float] = {}
        sim = self.sim_ns
        txns, queries, defrags = self.txns, self.queries, self.defrags
        if txns:
            m["host_txn_per_s"] = self.committed / (steady_host_s(txns) + sum(defrags.host))
            m["host_txn_p50_ms"] = percentile(txns.host, 50) * 1e3
            m["host_txn_p99_ms"] = percentile(txns.host, 99) * 1e3
            m["sim_tpmc"] = self.committed / sim * NS_PER_MIN
            m["sim_txn_p99_us"] = percentile(txns.sim, 99) / 1e3
        n = {name: len(txns) for name in m}
        if queries:
            m["host_query_per_s"] = len(queries) / steady_host_s(queries)
            m["host_query_p50_ms"] = percentile(queries.host, 50) * 1e3
            m["host_query_p95_ms"] = percentile(queries.host, 95) * 1e3
            m["sim_qphh"] = len(queries) / sim * NS_PER_HOUR
            m["sim_query_p95_us"] = percentile(queries.sim, 95) / 1e3
            m["sim_staleness_mean_txns"] = statistics.mean(self.staleness)
        n.update({name: len(queries) for name in m if name not in n})
        if defrags:
            m["host_defrag_pause_p50_ms"] = percentile(defrags.host, 50) * 1e3
            n["host_defrag_pause_p50_ms"] = len(defrags)
        return m, n

    def simulated(self) -> Dict[str, Any]:
        """Everything simulated this phase saw (feeds ``sim_digest``)."""
        return {
            "committed": self.committed,
            "aborted": self.aborted,
            "txn_sim_ns": self.txns.sim,
            "query_sim_ns": self.queries.sim,
            "defrag_sim_ns": self.defrags.sim,
            "staleness": self.staleness,
            "answers": self.answers.hexdigest(),
        }


@dataclass
class Opaque:
    """A phase the program runs in one call (``ServeLoop.run``,
    ``ClusterWorkload.run``): host time is known for the whole call only."""

    #: Reference-host seconds inside the call.
    host_s: float
    attempted: int
    failed: int
    values: Dict[str, float]
    counts: Dict[str, int]
    report: Dict[str, Any]

    def metrics(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        return self.values, self.counts

    def simulated(self) -> Dict[str, Any]:
        return self.report


@dataclass
class Check:
    """One output check and the operations a failure would cover."""

    name: str
    ok: bool
    covers: int
    detail: str = ""


@dataclass
class LegResult:
    setup_s: List[float] = field(default_factory=list)
    #: Phases in the order they ran; later entries are the probes.
    phases: Dict[str, Any] = field(default_factory=dict)
    probe_phases: List[str] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    final_answers: Dict[str, Any] = field(default_factory=dict)
    engines: List[Any] = field(default_factory=list)
    cluster: Any = None
    serve_report: Optional[Dict[str, Any]] = None

    #: Host slowdown the calibration loop saw, whole leg (1.0 = reference).
    host_slowdown: float = 1.0

    @property
    def run_host_s(self) -> float:
        """Host seconds inside the primary phases' operations."""
        return sum(
            phase.host_s
            for name, phase in self.phases.items()
            if name not in self.probe_phases
        )

    def end_to_end(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Primary phases speak first; probes fill what they cannot."""
        metrics: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        primary = [p for n, p in self.phases.items() if n not in self.probe_phases]
        probes = [self.phases[n] for n in self.probe_phases]
        for phase in probes + primary:
            m, n = phase.metrics()
            metrics.update(m)
            counts.update(n)
        return metrics, counts

    def attempted_failed(self) -> Tuple[int, int]:
        attempted = sum(p.attempted for p in self.phases.values())
        failed = sum(
            p.failed if isinstance(p, Opaque) else p.aborted
            for p in self.phases.values()
        )
        failed += sum(c.covers for c in self.checks if not c.ok)
        return attempted, min(attempted, failed)

    def sim_digest(self) -> str:
        """sha256 of the canonical simulated report plus the final answers."""
        body = {
            "phases": {name: p.simulated() for name, p in self.phases.items()},
            "final_answers": self.final_answers,
        }
        text = json.dumps(body, sort_keys=True, default=str)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The benchmark-owned closed loop
# ----------------------------------------------------------------------
class EngineClient:
    """One closed-loop client over one engine."""

    def __init__(self, engine: PushTapEngine, drivers: Sequence) -> None:
        self.engine = engine
        self.engines = [engine]
        self.drivers = list(drivers)
        self._cursor = 0

    def next_transaction(self):
        driver = self.drivers[self._cursor % len(self.drivers)]
        self._cursor += 1
        return driver, driver.next_transaction()

    def execute(self, txn) -> Tuple[bool, float]:
        result = self.engine.execute_transaction(txn, auto_defrag=False)
        return result.aborted, result.total_time

    def query(self, name: str) -> Tuple[Dict, float]:
        result = self.engine.query(name)
        return result.rows, result.total_time


class ClusterClient(EngineClient):
    """One closed-loop client over a sharded cluster, in this process."""

    def __init__(self, cluster: PushTapCluster, drivers: Sequence) -> None:
        self.engine = cluster
        self.engines = list(cluster.engines)
        self.drivers = list(drivers)
        self._cursor = 0

    def execute(self, txn) -> Tuple[bool, float]:
        result = self.engine.execute_transaction(txn)
        return not result.committed, result.latency


def drive(
    leg: Leg,
    client: EngineClient,
    samples: Samples,
    intervals: int,
    txns_per_interval: int,
    queries: Sequence[str] = (),
    final_defrag: bool = False,
    since_query: int = 0,
) -> int:
    """``intervals`` rounds of ``txns_per_interval`` transactions then one
    query (cycling through ``queries``), one client, closed loop.

    The loop owns defragmentation: before each transaction it runs
    ``defragment()`` on every engine whose ``defrag_due()`` says so, and
    times that pause on its own, apart from transaction latency.
    ``final_defrag`` ends the phase with one more pass over whatever is
    pending, so every phase with transactions has a pause sample.
    Returns the transactions committed since the last query.
    """

    calib = leg.calib

    def defragment(engine) -> None:
        calib.sample()
        with leg.operation("defrag"):
            t0 = clock()
            results = engine.defragment()
            host_s = clock() - t0
        calib.sample()
        samples.defrags.add(t0, host_s, sum(r.total_time for r in results.values()))

    for interval in range(intervals):
        for index in range(txns_per_interval):
            if index % 10 == 0:
                calib.sample()
            for engine in client.engines:
                if engine.defrag_due():
                    defragment(engine)
            driver, txn = client.next_transaction()
            with leg.operation("txn"):
                t0 = clock()
                aborted, sim_ns = client.execute(txn)
                host_s = clock() - t0
            samples.txns.add(t0, host_s, sim_ns)
            if aborted:
                samples.aborted += 1
                driver.note_abort(txn)
            else:
                samples.committed += 1
                since_query += 1
        if queries:
            calib.sample()
            name = queries[interval % len(queries)]
            with leg.operation("query"):
                t0 = clock()
                rows, sim_ns = client.query(name)
                host_s = clock() - t0
            calib.sample()
            samples.queries.add(t0, host_s, sim_ns)
            samples.answers.update(
                json.dumps([name, rows], sort_keys=True, default=str).encode("utf-8")
            )
            samples.staleness.append(since_query)
            since_query = 0
    if final_defrag:
        for engine in client.engines:
            defragment(engine)
    calib.sample()
    samples.to_reference_host(calib)
    return since_query


def calibrated_call(
    leg: Leg, kind: str, call: Callable[[], Any], workers: bool = False
) -> Tuple[Any, float]:
    """Time one call the program runs as a whole (a set-up, a ``run()``):
    its value and its reference-host seconds.

    The calibration kernel runs every 20 ms all through the call (and its
    own time is taken off). With ``workers`` the call spreads over worker
    processes: then it is timed in plain wall-clock. This thread's CPU
    time would miss the workers, and the kernel has nothing to say: run
    during the call it would measure the workers' own load, run after it
    it finds a core that idled while they worked.
    """
    calib = leg.calib
    if workers:
        with leg.operation(kind):
            t0 = time.perf_counter()
            value = call()
            return value, time.perf_counter() - t0
    with leg.operation(kind), calib.sampling() as during:
        t0 = clock()
        value = call()
        raw_s = clock() - t0 - during[0]
    # A call shorter than the timer's period gets one sample, right after.
    return value, raw_s / calib.slowdown(during[1:] or [calib.kernel()[1]])


def timed_setups(leg: Leg, result: LegResult, setup: Callable[[], Any]) -> Any:
    """Set up ``leg.builds`` times, timing each; keep the last instance."""
    instance = None
    with leg.span("bench.setup"):
        for _ in range(leg.builds):
            instance = None
            gc.collect()
            instance, seconds = calibrated_call(leg, "build", setup)
            result.setup_s.append(seconds)
    return instance


def phase(leg: Leg, result: LegResult, name: str, probe: bool = False) -> Samples:
    """Open a benchmark-owned phase: collected garbage, fresh samples."""
    samples = Samples()
    result.phases[name] = samples
    if probe:
        result.probe_phases.append(name)
    gc.collect()
    return samples


def insert_headroom(txns: int) -> int:
    """``extra_rows`` for a stream of ``txns`` transactions: a new-order
    (45 %) appends up to 15 ORDERLINE rows, so 8 per transaction is ample."""
    return 8 * txns + 4096


def check_outputs(result: LegResult, client: EngineClient, queries_run: int) -> None:
    """Invariants on every engine, then final Q1/Q6 against the oracle."""
    violations: List[str] = []
    for engine in client.engines:
        violations += InvariantChecker(engine, raise_on_violation=False).check()
    attempted = sum(p.attempted for p in result.phases.values())
    result.checks.append(
        Check("invariants", not violations, attempted, "; ".join(violations[:3]))
    )
    want_q1, want_q6 = q1_q6_reference(client.engines)
    for name, want in (("Q1", want_q1), ("Q6", want_q6)):
        rows, _ = client.query(name)
        got = json.loads(json.dumps(rows, default=int))
        want = json.loads(json.dumps(want))
        result.final_answers[name] = got
        result.checks.append(
            Check(
                f"{name} equals the row-at-a-time oracle",
                got == want,
                # A wrong final answer casts doubt on every query run.
                queries_run,
                "" if got == want else f"engine {got} != oracle {want}",
            )
        )
    result.engines = list(client.engines)


def queries_in(result: LegResult) -> int:
    return sum(len(p.queries) for p in result.phases.values() if isinstance(p, Samples))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def oltp_tpcc(leg: Leg) -> LegResult:
    """TPC-C only, with the defragmentation pause timed apart."""
    result = LegResult()
    txns = leg.size.ops(600)
    probe_queries = leg.size.fixed(140, 21)

    def setup() -> EngineClient:
        engine = PushTapEngine.build(
            scale=3e-4, seed=leg.seed, defrag_period=280,
            extra_rows=insert_headroom(txns),
        )
        return EngineClient(engine, [engine.make_driver(seed=leg.seed + 1, **TXN_MIX)])

    client = timed_setups(leg, result, setup)
    with leg.span("bench.phase.txns"):
        pending = drive(leg, client, phase(leg, result, "txns"), 1, txns, final_defrag=True)
    if leg.probes:
        # Query latency right after the burst: the first query advances
        # the snapshot over every transaction above.
        drive(leg, client, phase(leg, result, "probe_queries", probe=True),
              probe_queries, 0, HTAP_QUERIES, since_query=pending)
    check_outputs(result, client, queries_in(result))
    return result


def olap_scan(leg: Leg) -> LegResult:
    """Read-only scans over the largest working set, caches warm."""
    result = LegResult()
    queries = leg.size.ops(len(SCAN_QUERIES) * 4)
    warmup = leg.size.fixed(1500, 300)

    def setup() -> EngineClient:
        engine = PushTapEngine.build(
            scale=5e-4, seed=leg.seed, defrag_period=280,
            extra_rows=insert_headroom(warmup),
        )
        return EngineClient(engine, [engine.make_driver(seed=leg.seed + 1, **TXN_MIX)])

    client = timed_setups(leg, result, setup)
    # The warm-up leaves delta versions behind (no final defragmentation),
    # so the scans cover both regions; it is also the only place this
    # workload writes, hence where its transaction metrics come from.
    with leg.span("bench.phase.warmup"):
        pending = drive(leg, client, phase(leg, result, "warmup"), 1, warmup)
    with leg.span("bench.phase.scan"):
        drive(leg, client, phase(leg, result, "scan"), queries, 0, SCAN_QUERIES,
              since_query=pending)
    check_outputs(result, client, queries_in(result))
    return result


def htap_mixed(leg: Leg) -> LegResult:
    """The paper's single-instance case: reads beside writes, same rows."""
    result = LegResult()
    intervals = leg.size.ops(20)
    txns_per_query = 25

    def setup() -> EngineClient:
        engine = PushTapEngine.build(
            scale=3e-4, seed=leg.seed, defrag_period=280,
            extra_rows=insert_headroom(intervals * txns_per_query),
        )
        return EngineClient(engine, [engine.make_driver(seed=leg.seed + 1, **TXN_MIX)])

    client = timed_setups(leg, result, setup)
    with leg.span("bench.phase.mixed"):
        drive(leg, client, phase(leg, result, "mixed"), intervals, txns_per_query,
              HTAP_QUERIES, final_defrag=True)
    check_outputs(result, client, queries_in(result))
    return result


def serve_tenants(leg: Leg) -> LegResult:
    """Open-loop multi-tenant serving with incremental views."""
    result = LegResult()
    per_tenant = leg.size.ops(175)
    probe_intervals = leg.size.fixed(140, 20)
    probe_txns = 7

    def setup() -> ServeLoop:
        engine = PushTapEngine.build(
            # Two full periods fit the probe, so its median pause is a
            # full one whatever the serve run left pending.
            scale=1e-4, block_rows=256, seed=leg.seed, defrag_period=450,
            extra_rows=insert_headroom(TENANTS * per_tenant + probe_intervals * probe_txns),
        )
        config = ServeConfig(
            tenants=TENANTS, requests_per_tenant=per_tenant, policy="freshness",
            ivm=True, olap_fraction=0.05, queue_depth=64, seed=leg.seed + 1,
            # Open loop, Poisson in *simulated* time at some 40 % of the
            # simulated capacity: queueing shows in the simulated p99,
            # nothing is shed. (At 50 % that p99 differs by 20 % from one
            # seed to the next, more than a bound can absorb.)
            arrival="open", rate_per_tenant=4000.0,
            # Longer than any run: the staleness trigger of the freshness
            # policy and the batch threshold flush the OLAP queue. Idling
            # to the max-wait deadline can livelock ServeLoop.run() on a
            # float round-off ((t + wait) - t < wait); see README.md.
            max_wait_ns=1e15,
        )
        return ServeLoop(engine, config)

    loop = timed_setups(leg, result, setup)
    engine = loop.engine
    gc.collect()
    with leg.span("bench.phase.serve"):
        served, host_s = calibrated_call(leg, "serve_run", loop.run)
    report = served.report
    tenants = loop.slo.tenants.values()
    txn_sim = [s for t in tenants for s in t.oltp_latency.samples]
    query_sim = [s for t in tenants for s in t.olap_latency.samples]
    committed = report["engine"]["transactions"]
    rejected = report["admission"]["rejected"]
    aborted = sum(t.aborted for t in tenants)
    values = {
        "host_txn_per_s": committed / host_s,
        "sim_tpmc": report["throughput"]["oltp_tpmc"],
        "sim_qphh": report["throughput"]["olap_qphh"],
        # End to end in simulated time: queue wait included.
        "sim_txn_p99_us": percentile(txn_sim, 99) / 1e3,
        "sim_query_p95_us": percentile(query_sim, 95) / 1e3,
        "sim_staleness_mean_txns": report["freshness"]["mean_staleness_txns"],
    }
    counts = {name: len(txn_sim) for name in ("host_txn_per_s", "sim_tpmc", "sim_txn_p99_us")}
    counts.update({name: len(query_sim) for name in
                   ("sim_qphh", "sim_query_p95_us", "sim_staleness_mean_txns")})
    result.phases["serve"] = Opaque(
        host_s, served.requests, rejected + served.disconnects + aborted,
        values, counts, report,
    )
    result.serve_report = report
    balanced = served.requests == served.completed + rejected + served.disconnects
    result.checks.append(Check(
        "serve accounting (slo_errors empty, submitted = completed + rejected + disconnected)",
        not served.slo_errors and balanced, served.requests,
        "; ".join(served.slo_errors[:3]),
    ))
    # The tenants' own drivers go on in the probe (their order-id stripes
    # stay disjoint from what the serve run inserted), on the benchmark's
    # mix: at the sessions' 50/50 the median latency sits on the edge
    # between cheap payments and dear new-orders and flips between runs.
    drivers = [loop.sessions[t].driver for t in range(TENANTS)]
    for driver in drivers:
        driver.payment_fraction = TXN_MIX["payment_fraction"]
        driver.delivery_fraction = TXN_MIX["delivery_fraction"]
    client = EngineClient(engine, drivers)
    if leg.probes:
        drive(leg, client, phase(leg, result, "probe", probe=True), probe_intervals,
              probe_txns, HTAP_QUERIES, final_defrag=True)
    check_outputs(result, client, queries_in(result) + len(query_sim))
    return result


def cluster_2pc(leg: Leg) -> LegResult:
    """Four shards, cross-shard 2PC, scatter-gather OLAP, two workers."""
    result = LegResult()
    intervals = leg.size.ops(12)
    txns_per_query = 50
    probe_intervals = leg.size.fixed(140, 20)
    probe_txns = 7
    mix = dict(tenants=TENANTS, remote_fraction=1.0, **TXN_MIX)

    def setup() -> ClusterWorkload:
        cluster = PushTapCluster.build(
            shards=SHARDS, counts=cluster_row_counts(1e-4, SHARDS), seed=leg.seed,
            defrag_period=150,
            extra_rows=insert_headroom(intervals * txns_per_query + probe_intervals * probe_txns),
        )
        return ClusterWorkload(
            cluster, txns_per_query=txns_per_query, seed=leg.seed + 1,
            jobs=leg.jobs, **mix,
        )

    workload = timed_setups(leg, result, setup)
    cluster = workload.cluster
    gc.collect()
    with leg.span("bench.phase.cluster"):
        report, host_s = calibrated_call(
            leg, "cluster_run", lambda: workload.run(intervals), workers=leg.jobs > 1
        )
    query_sim = [s for h in report.query_histograms.values() for s in h.samples]
    values = {
        "host_txn_per_s": report.committed / host_s,
        "sim_tpmc": report.oltp_tpmc,
        "sim_qphh": report.olap_qphh,
        "sim_txn_p99_us": percentile(report.txn_histogram.samples, 99) / 1e3,
        "sim_query_p95_us": percentile(query_sim, 95) / 1e3,
        "sim_staleness_mean_txns": report.transactions / report.queries,
    }
    counts = {name: report.transactions for name in
              ("host_txn_per_s", "sim_tpmc", "sim_txn_p99_us")}
    counts.update({name: report.queries for name in
                   ("sim_qphh", "sim_query_p95_us", "sim_staleness_mean_txns")})
    result.phases["cluster"] = Opaque(
        host_s, report.transactions + report.queries, report.aborted,
        values, counts, report.as_dict(),
    )
    result.cluster = cluster
    violations = cluster.twopc.atomicity_violations()
    result.checks.append(Check(
        "2PC atomicity (no cross-shard transaction with mixed outcomes)",
        not violations, report.cross_shard_attempted, "; ".join(violations[:3]),
    ))
    done = (report.transactions, report.queries) == (intervals * txns_per_query, intervals)
    result.checks.append(Check(
        "cluster run completed every interval", done, report.transactions + report.queries,
    ))
    if leg.jobs > 1:
        # The workers own the shard state they changed; this process
        # still holds the engines as built. A fresh set of tenant drivers
        # over them is therefore consistent, which the run's own drivers
        # (already advanced by the plan pass) would not be.
        drivers = ClusterWorkload(cluster, seed=leg.seed + 2, jobs=1, **mix).drivers
    else:
        drivers = workload.drivers
    client = ClusterClient(cluster, drivers)
    if leg.probes:
        drive(leg, client, phase(leg, result, "probe", probe=True), probe_intervals,
              probe_txns, HTAP_QUERIES, final_defrag=True)
    check_outputs(result, client, queries_in(result) + report.queries)
    return result


WORKLOADS: Dict[str, Callable[[Leg], LegResult]] = {
    "oltp_tpcc": oltp_tpcc,
    "olap_scan": olap_scan,
    "htap_mixed": htap_mixed,
    "serve_tenants": serve_tenants,
    "cluster_2pc": cluster_2pc,
}


# ----------------------------------------------------------------------
# The two passes
# ----------------------------------------------------------------------
def run_leg(name: str, leg: Leg) -> LegResult:
    gc.collect()
    result = WORKLOADS[name](leg)
    result.host_slowdown = leg.calib.slowdown()
    return result


def summarize(result: LegResult) -> Dict[str, Any]:
    attempted, failed = result.attempted_failed()
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and all(c.ok for c in result.checks),
        "checks": [vars(c) for c in result.checks],
        "sim_digest": result.sim_digest(),
        "host_slowdown": result.host_slowdown,
    }


def run_end_to_end(name: str, seed: int, size: Size) -> Dict[str, Any]:
    """The untraced pass: every end-to-end metric but peak RSS, which the
    caller reads once the process has done all its work."""
    builds = {"serve_tenants": 3, "oltp_tpcc": 2, "htap_mixed": 2}.get(name, 1)
    result = run_leg(name, Leg(seed, size, builds=1 if size.quick else builds))
    metrics, counts = result.end_to_end()
    metrics["setup_s"] = statistics.median(result.setup_s)
    counts["setup_s"] = len(result.setup_s)
    out = summarize(result)
    out.update(metrics=metrics, samples=counts)
    return out


def run_traced(name: str, seed: int, size: Size, trace_path) -> Dict[str, Any]:
    """The traced pass: one untraced leg, the same leg traced, and the
    extra untraced legs two of the ratios need. Probes are left out, so
    the layer numbers describe the primary phases only."""

    def leg(tracer: Optional[Tracer] = None, jobs: int = 2) -> LegResult:
        return run_leg(name, Leg(seed, size, probes=False, tracer=tracer, jobs=jobs))

    ratios = {"parallel.speedup": 0.0, "telemetry.enabled_run_ratio": 0.0}
    tracer = Tracer()
    if name == "cluster_2pc":
        # Traced in-process at jobs=1; the jobs=2 leg is the one the
        # end-to-end pass measures.
        two_workers = leg(jobs=2).run_host_s
        tracer.record("parallel.run", two_workers)
        plain = leg(jobs=1)
        ratios["parallel.speedup"] = plain.run_host_s / two_workers
    else:
        plain = leg()
    plain_host_s, plain_digest = plain.run_host_s, plain.sim_digest()
    del plain
    if name == "htap_mixed":
        telemetry.enable()
        try:
            ratios["telemetry.enabled_run_ratio"] = leg().run_host_s / plain_host_s
        finally:
            telemetry.disable()
    tracer.install()
    try:
        with tracer.span("bench.workload"):
            traced = leg(tracer, jobs=1)
    finally:
        tracer.uninstall()
    ratios["bench.trace_overhead_ratio"] = traced.run_host_s / plain_host_s
    tracer.harvest(traced.engines, traced.cluster, traced.serve_report)
    tracer.write_chrome_trace(trace_path)
    errors = tracer.self_check()
    # Layer seconds in reference-host seconds too, by the traced leg's
    # own slowdown (parallel.run is the wall-clock of the jobs=2 leg).
    metrics = {
        metric: value / traced.host_slowdown
        if value is not None and metric.endswith(".self_s") and metric != "parallel.run.self_s"
        else value
        for metric, value in tracer.metrics().items()
    }
    metrics.update(ratios)
    out = summarize(traced)
    if out["sim_digest"] != plain_digest:
        errors.append("the traced leg's simulated results differ from the untraced leg's")
    out["checks"].append(vars(Check("trace self-check", not errors, 0, "; ".join(errors))))
    out["correct"] = out["correct"] and not errors
    out.update(
        metrics=metrics,
        trace={
            "unresolved": tracer.unresolved_names(),
            "root_s": tracer.root_s,
            "self_sum_s": sum(tracer.self_s.values()) - tracer.self_s.get("parallel.run", 0.0),
            "bench_self_s": {k: v for k, v in tracer.self_s.items() if k.startswith("bench.")},
            "events": len(tracer.events),
            "dropped_nested_spans": tracer.dropped_events,
            "file": str(trace_path),
        },
    )
    return out
