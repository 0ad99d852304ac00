"""The ``FIGURES`` table on ddr5: every anchor in band, every figure pinned."""

import json
import pathlib
import re

import pytest

from repro.core.config import substrate_config
from repro.experiments.figures import FIGURES, as_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = ROOT / "baselines" / "figures.json"

ANCHORS = [
    (figure_id, anchor)
    for figure_id, figure in FIGURES.items()
    for anchor in figure.anchors
]


@pytest.fixture(scope="module")
def ddr5_points():
    config = substrate_config("ddr5")
    return {figure_id: figure.points(config) for figure_id, figure in FIGURES.items()}


@pytest.mark.parametrize(
    "figure_id, anchor",
    ANCHORS,
    ids=[f"{figure_id}:{anchor.name}" for figure_id, anchor in ANCHORS],
)
def test_anchor_in_band(ddr5_points, figure_id, anchor):
    value = anchor.value(ddr5_points[figure_id])
    assert anchor.lo <= value <= anchor.hi


def test_ids_follow_the_design_index():
    """``all`` prints in paper order: FIGURES follows DESIGN.md §3's id column."""
    design = (ROOT / "DESIGN.md").read_text()
    index = design[design.index("## 3."):design.index("## 4.")]
    assert re.findall(r"\| `(\w+)` \|$", index, re.M) == list(FIGURES)


def test_every_figure_has_an_anchor():
    assert [figure_id for figure_id, figure in FIGURES.items() if not figure.anchors] == []


@pytest.mark.parametrize("figure_id", list(FIGURES))
def test_points_match_baseline(ddr5_points, figure_id):
    baseline = json.loads(BASELINE.read_text())["ddr5"][figure_id]
    assert as_json(ddr5_points[figure_id]) == baseline
