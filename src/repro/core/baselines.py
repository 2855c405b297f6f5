"""Baseline selection strategies from the paper's evaluation (section 5).

* :func:`sum2d_plan` — "all convolutions in the network are performed using
  the textbook sum-of-single-channels algorithm"; the common baseline every
  speedup is reported against.
* :func:`family_greedy_plan` — the per-family bars (direct / im2 / kn2 /
  winograd / fft): "we construct the test network by picking the fastest
  variant of that family to replace the sum-of-single-channels algorithm for
  each individual convolution in the network, if the replacement is, in fact,
  faster than sum-of-single-channels for that convolutional scenario."  The
  required layout conversions are inserted afterwards (and paid for), which
  is exactly what makes this strategy a net slowdown in some cases
  (section 5.8).
* :func:`local_optimal_plan` — "Local Optimal (CHW)": the canonical-layout
  strategy that eliminates every conversion by keeping all tensors in the
  Caffe CHW layout and picking, per layer, the fastest CHW-to-CHW primitive.
* :func:`greedy_ignore_dt_plan` — an ablation: pick the globally fastest
  primitive per layer ignoring conversion costs, then pay them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from repro.core.legalize import finalize_plan, fixed_layouts, follow_producer_layouts
from repro.core.plan import NetworkPlan
from repro.core.selector import SelectionContext
from repro.layouts.layout import CHW
from repro.primitives.base import PrimitiveFamily

#: Name of the baseline primitive used by the SUM2D strategy.
SUM2D_PRIMITIVE = "sum2d"


def _fastest(costs: Mapping[str, float], names: Iterable[str]) -> str:
    """The cheapest of ``names`` that ``costs`` prices (SUM2D if none).

    Among equal costs the first in ``names`` wins, so callers pass names in
    library order, the order a cold build inserts: a stored table's keys are
    sorted, and a tie must break the same way cold and store-warm.
    """
    priced = (name for name in names if name in costs)
    return min(priced, key=costs.__getitem__, default=SUM2D_PRIMITIVE)


def sum2d_plan(context: SelectionContext) -> NetworkPlan:
    """The SUM2D baseline: every convolution uses the textbook algorithm."""
    conv_primitives = {layer.name: SUM2D_PRIMITIVE for layer in context.network.conv_layers()}
    wildcard = fixed_layouts(context, CHW)
    return finalize_plan(context, "sum2d", conv_primitives, wildcard)


def family_greedy_plan(context: SelectionContext, family: PrimitiveFamily) -> NetworkPlan:
    """The per-family greedy strategy of the evaluation's family bars.

    For each convolution layer the fastest variant *of the given family* is
    chosen if it beats SUM2D for that layer in isolation, otherwise the layer
    keeps SUM2D.  Layout conversions are not considered during selection and
    are inserted (and paid for) afterwards.
    """
    # The tables price every applicable primitive of a layer, so the family's
    # candidates are its members the tables hold.
    members = [primitive.name for primitive in context.library.by_family(family)]
    conv_primitives: Dict[str, str] = {}
    for layer in context.network.conv_layers():
        costs = context.tables.node_costs[layer.name]
        best = _fastest(costs, members)
        conv_primitives[layer.name] = (
            best if costs[best] < costs[SUM2D_PRIMITIVE] else SUM2D_PRIMITIVE
        )
    wildcard = follow_producer_layouts(context, conv_primitives)
    return finalize_plan(context, family.value, conv_primitives, wildcard)


def local_optimal_plan(context: SelectionContext) -> NetworkPlan:
    """The "Local Optimal (CHW)" canonical-layout strategy (section 2.2 / 5.5).

    Every tensor stays in the default Caffe layout (CHW), so no conversions
    are ever needed; each layer independently picks the fastest primitive
    that both consumes and produces CHW.
    """
    canonical = [
        primitive.name
        for primitive in context.library
        if primitive.input_layout == CHW and primitive.output_layout == CHW
    ]
    conv_primitives = {
        layer.name: _fastest(context.tables.node_costs[layer.name], canonical)
        for layer in context.network.conv_layers()
    }
    wildcard = fixed_layouts(context, CHW)
    return finalize_plan(context, "local_optimal", conv_primitives, wildcard)


def greedy_ignore_dt_plan(context: SelectionContext) -> NetworkPlan:
    """Ablation strategy: per-layer global fastest primitive, DT costs ignored.

    This is the strategy discussed in section 5.8 for Winograd on AlexNet:
    "simply selecting the fastest Winograd variant ignoring data layout
    transformation costs yields an instantiation that performs only marginally
    better than the baseline" — generalized to the whole library.
    """
    names = context.library.names()
    conv_primitives = {
        layer.name: _fastest(context.tables.node_costs[layer.name], names)
        for layer in context.network.conv_layers()
    }
    wildcard = follow_producer_layouts(context, conv_primitives)
    return finalize_plan(context, "greedy_ignore_dt", conv_primitives, wildcard)
