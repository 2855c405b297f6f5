"""Multi-objective selection: cost vectors, Pareto fronts and frontiers.

The subsystem has three layers:

* :mod:`repro.multiobj.vector` — :class:`CostVector`, the (time, peak
  workspace, energy proxy) value threaded through the cost model, the cost
  tables and every plan decision.  Dependency-free, so the cost layer imports
  it without cycles.
* :mod:`repro.multiobj.pareto` — nondominated filtering
  (:func:`_pareto_front`) and the seeded decision
  helpers (knee, lexicographic, constrained minimum).
* :mod:`repro.multiobj.frontier` — whole-network frontier construction:
  epsilon-constraint and weighted-scalarization PBQP solves plus the
  per-family baselines as seed points, evaluated exactly and reduced to a
  :class:`Frontier` of nondominated :class:`~repro.core.plan.NetworkPlan`
  points.  Imported lazily (it depends on the selection core, which depends
  on the cost layer, which imports ``vector`` above).
"""

from repro.multiobj.pareto import _pareto_front  # noqa: F401
from repro.multiobj.vector import OBJECTIVES, CostVector  # noqa: F401

_FRONTIER_NAMES = (
    "Frontier",
    "FrontierPoint",
    "build_frontier",
    "solve_under_workspace_cap",
    "FRONTIER_FORMAT",
)


def __getattr__(name):
    if name in _FRONTIER_NAMES:
        from repro.multiobj import frontier

        return getattr(frontier, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CostVector",
    "OBJECTIVES",
    "_pareto_front",
    *_FRONTIER_NAMES,
]
