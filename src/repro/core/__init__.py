"""Primitive selection: the paper's primary contribution.

Given a DNN graph, a primitive library, a DT graph of layout conversions and
a cost model, this package builds the PBQP instance of section 3.2/3.3 of the
paper, solves it, legalizes the resulting assignment by inserting layout
conversion chains, and returns an executable :class:`~repro.core.plan.NetworkPlan`.

It also implements every comparison strategy of the evaluation section:

* the SUM2D baseline;
* the per-family greedy strategies (direct / im2 / kn2 / winograd / fft) that
  replace SUM2D layer-by-layer when a family variant is locally faster and pay
  the layout-conversion bill afterwards;
* the "Local Optimal (CHW)" canonical-layout strategy;
* emulations of the vendor frameworks the paper compares against (Caffe,
  MKL-DNN, ARM Compute Library);
* a "greedy ignoring DT costs" ablation strategy.
"""

from repro.core.plan import LayerDecision, EdgeDecision, NetworkPlan
from repro.core.selector import PBQPSelector, SelectionContext
from repro.core.baselines import (
    sum2d_plan,
    family_greedy_plan,
    local_optimal_plan,
    greedy_ignore_dt_plan,
)
from repro.core.frameworks import caffe_like_plan, mkldnn_like_plan, armcl_like_plan
from repro.core.strategies import (
    STRATEGIES,
    Strategy,
    applicable_strategies,
    figure_strategy_names,
    get_strategy,
    register_strategy,
    registered_names,
)

__all__ = [
    "LayerDecision",
    "EdgeDecision",
    "NetworkPlan",
    "PBQPSelector",
    "SelectionContext",
    "STRATEGIES",
    "Strategy",
    "register_strategy",
    "get_strategy",
    "registered_names",
    "figure_strategy_names",
    "applicable_strategies",
    "sum2d_plan",
    "family_greedy_plan",
    "local_optimal_plan",
    "greedy_ignore_dt_plan",
    "caffe_like_plan",
    "mkldnn_like_plan",
    "armcl_like_plan",
]
