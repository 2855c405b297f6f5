"""repro: reproduction of "Optimal DNN Primitive Selection with PBQP" (Anderson & Gregg, CGO 2018).

The package is organised by subsystem:

* :mod:`repro.layouts` — data layouts, layout tensors and the DT graph;
* :mod:`repro.graph` — the DNN graph IR (layers, scenarios, networks);
* :mod:`repro.models` — the model zoo: AlexNet, VGG-A..E, GoogLeNet, ResNet
  and MobileNet builders;
* :mod:`repro.primitives` — the library of >70 convolution primitives;
* :mod:`repro.pbqp` — the PBQP solver;
* :mod:`repro.cost` — platform models, cost models and the persistent
  cost-table store;
* :mod:`repro.core` — the paper's contribution: PBQP-based primitive selection
  with data layout transformations, plus the baseline strategies;
* :mod:`repro.runtime` — functional execution of selected network plans;
* :mod:`repro.service` — the HTTP planning daemon (``repro serve``) and its
  stdlib client;
* :mod:`repro.experiments` — harnesses regenerating every figure and table.

Quickstart (see README.md for the full walkthrough)
---------------------------------------------------
>>> from repro import Session
>>> session = Session(cache_dir="repro-cache")          # doctest: +SKIP
>>> plan = session.plan("alexnet", "intel-haswell")     # doctest: +SKIP
>>> report = plan.execute()                             # doctest: +SKIP
>>> comparison = session.compare("alexnet", "intel-haswell")  # doctest: +SKIP

The session owns the full pipeline: cost tables come from one
:class:`~repro.cost.model.CostModel` (by default each platform's analytical
model, or e.g. the host profiler) and optionally persist in a disk-backed
:class:`~repro.cost.store.CostStore`,
strategies resolve through the table in :mod:`repro.core.strategies`, and
:meth:`~repro.api.Session.run` executes the selected plan with per-layer
timing.  Every selection context and plan is built by a session.
"""

__version__ = "1.6.0"

from repro.graph import ConvScenario, Network
from repro.models import build_model
from repro.layouts import Layout, LayoutTensor, DTGraph

__all__ = [
    "__version__",
    "ConvScenario",
    "Network",
    "build_model",
    "Layout",
    "LayoutTensor",
    "DTGraph",
    "Session",
    "Plan",
    "ExecutionReport",
    "ComparisonReport",
    "CostStore",
    "STRATEGIES",
    "Strategy",
    "PLATFORMS",
    "default_primitive_library",
    "PlannerApp",
    "PlannerClient",
]

#: Names resolved lazily from repro.api (avoids import cycles at package load).
_API_NAMES = (
    "Session",
    "Plan",
    "ExecutionReport",
    "ComparisonReport",
)
_COST_NAMES = (
    "CostStore",
    "PLATFORMS",
)


def __getattr__(name):
    """Lazily expose the higher-level API to avoid import cycles at package load."""
    if name in _API_NAMES:
        import repro.api

        return getattr(repro.api, name)
    if name in _COST_NAMES:
        import repro.cost

        return getattr(repro.cost, name)
    if name in ("STRATEGIES", "Strategy", "get_strategy"):
        import repro.core.strategies

        return getattr(repro.core.strategies, name)
    if name == "default_primitive_library":
        from repro.primitives import default_primitive_library

        return default_primitive_library
    if name in ("PlannerApp", "PlannerClient"):
        import repro.service

        return getattr(repro.service, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
