"""Every paper figure and ablation, one benchmark per ``FIGURES`` id.

Each benchmark times the figure's points on the default substrate,
prints its table and paper anchors, and asserts every anchor is in band.
"""

import pytest

from repro.experiments.figures import FIGURES, render


@pytest.mark.parametrize("figure_id", list(FIGURES))
def test_figure(benchmark, emit, figure_id):
    figure = FIGURES[figure_id]
    points = benchmark.pedantic(figure.points, args=(None,), rounds=1, iterations=1)
    emit(render(figure_id, points))
    assert [a.name for a in figure.anchors if not a.holds(points)] == []
