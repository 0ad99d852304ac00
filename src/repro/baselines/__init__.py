"""Baselines the paper compares against (§7.3): the multi-instance (MI)
design, the ideal scan bound, and the analytic PUSHtap model used for
full-scale extrapolation.

The original PIM architecture (Fig. 12b) needs no module of its own:
functionally it is :class:`repro.pim.controller.OriginalController`
(``controller_kind="original"`` on :meth:`PushTapEngine.build`), and
analytically ``column_scan_cost(..., controller_kind="original")``,
which :func:`repro.experiments.fig12.wram_size_sweep` sweeps over WRAM
sizes."""

from repro.baselines.ideal import IdealOLAPModel
from repro.baselines.multi_instance import MultiInstanceModel, RebuildCost
from repro.baselines.pushtap_model import PushTapQueryModel

__all__ = [
    "IdealOLAPModel",
    "MultiInstanceModel",
    "RebuildCost",
    "PushTapQueryModel",
]
