"""Structured tracing and profiling over the telemetry span log.

The :mod:`repro.trace` package turns the flat simulated-time span log
recorded by :mod:`repro.telemetry` into a structured timeline and the
analyses a time-breakdown study needs:

* :mod:`repro.trace.tracer` — track assignment + containment nesting;
* :mod:`repro.trace.chrome` — Chrome trace-event JSON (Perfetto);
* :mod:`repro.trace.flame` — flamegraph folded stacks;
* :mod:`repro.trace.analysis` — occupancy, critical path, bottlenecks;
* :mod:`repro.trace.profile` — the end-to-end profile runner behind
  ``python -m repro.experiments profile`` and ``baselines/profile.json``.

Every time here is simulated; host time is measured by
``benchmarks/e2e``.
"""

from repro.trace.analysis import BottleneckReport, analyze
from repro.trace.chrome import to_chrome_json, to_chrome_trace
from repro.trace.flame import folded_stacks, to_folded
from repro.trace.profile import ProfileResult, run_profile
from repro.trace.tracer import Tracer, TraceSpan, default_track

__all__ = [
    "Tracer",
    "TraceSpan",
    "default_track",
    "to_chrome_trace",
    "to_chrome_json",
    "folded_stacks",
    "to_folded",
    "analyze",
    "BottleneckReport",
    "ProfileResult",
    "run_profile",
]
