"""Experiment modules — one per paper figure (§7), plus the ablations.

Each module computes the data series behind one figure.
:mod:`repro.experiments.figures` turns them into one ``FIGURES`` table
(points call, table columns, paper anchors per figure id) that the CLI,
the figure baseline gate and the benchmark suite read.
"""

from repro.experiments import common, fig8, fig9, fig10, fig11, fig12

__all__ = ["common", "fig8", "fig9", "fig10", "fig11", "fig12"]
