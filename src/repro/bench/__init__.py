"""Bench sweeps: PrIM-style microbenchmarks and the substrate roofline.

``repro.bench.micro`` runs the query path's primitives on a one-unit
table and ``repro.bench.roofline`` adds the end-to-end operator sweep on
the full rank; together they are ``python -m repro.experiments
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
