"""Bench sweeps: PrIM-style microbenchmarks and the substrate roofline.

``repro.bench.micro`` and ``repro.bench.roofline`` are the single-unit
and end-to-end operator sweeps behind ``python -m repro.experiments
roofline``; ``baselines/roofline.json`` pins the full sweep (see
:mod:`repro.experiments.baselines`).
"""

from repro.bench.micro import MicroPoint, fit_saturation, run_micro
from repro.bench.roofline import render_roofline, run_roofline

__all__ = [
    "MicroPoint",
    "fit_saturation",
    "render_roofline",
    "run_micro",
    "run_roofline",
]
