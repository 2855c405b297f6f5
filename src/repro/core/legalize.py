"""Legalization: turn per-layer choices into an executable, costed plan.

Section 3 of the paper: "we combine different incompatible primitives using a
legalization phase.  The legalization phase inserts additional data layout
conversion layers to bisect illegal edges ...  the legalizer can then select
one or more data layout transformation primitives to implement the conversion
layers."

:func:`finalize_plan` performs that phase for any strategy: given the chosen
primitive for every convolution layer and the chosen layout for every other
layer, it walks every data-flow edge, looks up the cheapest conversion chain
between the producer's output layout and the consumer's required input layout
(the all-pairs shortest paths of the DT graph, already priced in the cost
tables), and assembles the resulting :class:`~repro.core.plan.NetworkPlan`.
:func:`replay_plan` runs the same phase over an existing plan's choices
under another context, so the plan is re-priced there.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.core.plan import EdgeDecision, LayerDecision, NetworkPlan, conversion_groups
from repro.layouts.layout import Layout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.selector import SelectionContext


class IllegalPlanError(ValueError):
    """Raised when a required layout conversion has no path in the DT graph."""


def finalize_plan(
    context: "SelectionContext",
    strategy: str,
    conv_primitives: Dict[str, str],
    wildcard_layouts: Dict[str, Layout],
) -> NetworkPlan:
    """Legalize per-layer choices into a complete :class:`NetworkPlan`.

    Parameters
    ----------
    context:
        The selection context (network, library, cost tables, platform).
    strategy:
        Name recorded on the plan (``"pbqp"``, ``"sum2d"``, ``"winograd"``, ...).
    conv_primitives:
        Mapping from convolution layer name to the chosen primitive name.
    wildcard_layouts:
        Mapping from every non-convolution layer name to the layout it
        operates in.

    Raises
    ------
    IllegalPlanError
        If two chosen layouts cannot be connected by any conversion chain.
    """
    network = context.network
    tables = context.tables
    library = context.library

    missing = {layer.name for layer in network.conv_layers()} - set(conv_primitives)
    if missing:
        raise ValueError(f"no primitive chosen for convolution layers {sorted(missing)}")

    layer_decisions: Dict[str, LayerDecision] = {}
    for layer in network.topological_order():
        if layer.is_convolution:
            primitive_name = conv_primitives[layer.name]
            primitive = library.get(primitive_name)
            cost = tables.primitive_cost(layer.name, primitive_name)
            layer_decisions[layer.name] = LayerDecision(
                layer=layer.name,
                primitive=primitive_name,
                input_layout=primitive.input_layout,
                output_layout=primitive.output_layout,
                cost=cost,
                workspace_bytes=tables.primitive_workspace(layer.name, primitive_name),
                energy_j=tables.primitive_energy(layer.name, primitive_name),
                accuracy_loss=tables.primitive_accuracy(layer.name, primitive_name),
            )
        else:
            if layer.name not in wildcard_layouts:
                raise ValueError(f"no layout chosen for non-convolution layer {layer.name!r}")
            layout = wildcard_layouts[layer.name]
            layer_decisions[layer.name] = LayerDecision(
                layer=layer.name,
                primitive=None,
                input_layout=layout,
                output_layout=layout,
                cost=0.0,
            )

    edge_decisions = []
    for edge in network.edges():
        producer_decision = layer_decisions[edge.producer]
        consumer_decision = layer_decisions[edge.consumer]
        shape = tables.shapes[edge.producer]
        path = tables.conversion_path(
            shape, producer_decision.output_layout, consumer_decision.input_layout
        )
        if not path.reachable:
            raise IllegalPlanError(
                f"edge {edge.producer!r} -> {edge.consumer!r}: no conversion chain from "
                f"{producer_decision.output_layout.name} to {consumer_decision.input_layout.name}"
            )
        edge_decisions.append(
            EdgeDecision(
                producer=edge.producer,
                consumer=edge.consumer,
                source_layout=producer_decision.output_layout,
                target_layout=consumer_decision.input_layout,
                chain=path.chain,
                cost=path.cost,
                energy_j=tables.conversion_energy(
                    shape, producer_decision.output_layout, consumer_decision.input_layout
                ),
            )
        )

    # Multi-input layers (concat, eltwise-add) operate in exactly one layout,
    # and because every inbound edge above targets the consumer's single
    # input_layout, the plan built here satisfies that by construction.
    # Hand-assembled or deserialized plans are validated where they are
    # consumed (see NetworkExecutor.__init__).

    # A chain shared by several consumers runs once (see conversion_groups),
    # so only its first edge in execution order keeps the cost and energy;
    # the others keep the chain, which the executor needs to find the cached
    # tensor, at zero cost.  NetworkPlan.total_cost then equals the executed
    # trace.
    for members in conversion_groups(edge_decisions, layer_decisions).values():
        for duplicate in members[1:]:
            duplicate.cost = 0.0
            duplicate.energy_j = 0.0

    return NetworkPlan(
        network_name=network.name,
        strategy=strategy,
        platform_name=context.platform_name,
        threads=context.threads,
        layer_decisions=layer_decisions,
        edge_decisions=edge_decisions,
        batch=context.batch,
        dtype=context.dtype,
    )


def replay_plan(
    context: "SelectionContext", base_plan: NetworkPlan, strategy: str = "replay"
) -> NetworkPlan:
    """Re-price a plan's choices under another context's cost tables.

    Keeps every per-layer choice of ``base_plan`` — the convolution
    primitives and the layouts of the non-convolution layers — and legalizes
    them against ``context`` (typically the same network priced at a
    different batch size or precision), so the returned plan carries the
    costs that fixed assignment would incur there.
    """
    wildcard_layouts = {
        name: decision.output_layout
        for name, decision in base_plan.layer_decisions.items()
        if decision.primitive is None
    }
    return finalize_plan(context, strategy, base_plan.conv_selections(), wildcard_layouts)


def follow_producer_layouts(
    context: "SelectionContext", conv_primitives: Dict[str, str]
) -> Dict[str, Layout]:
    """Assign every non-convolution layer the layout of its first producer.

    This models the behaviour of the per-family greedy strategies of the
    evaluation: non-convolution layers simply operate on whatever layout the
    data arrives in, and conversions appear only where a convolution demands a
    different layout than its producer delivered.
    """
    from repro.layouts.layout import CHW

    network = context.network
    library = context.library
    layouts: Dict[str, Layout] = {}
    output_layout: Dict[str, Layout] = {}
    for layer in network.topological_order():
        producers = network.inputs_of(layer.name)
        if layer.is_convolution:
            primitive = library.get(conv_primitives[layer.name])
            output_layout[layer.name] = primitive.output_layout
            continue
        if not producers:
            layouts[layer.name] = CHW
        else:
            layouts[layer.name] = output_layout[producers[0]]
        output_layout[layer.name] = layouts[layer.name]
    return layouts


def fixed_layouts(context: "SelectionContext", layout: Layout) -> Dict[str, Layout]:
    """Assign one fixed layout to every non-convolution layer (canonical-layout strategies)."""
    return {
        layer.name: layout
        for layer in context.network.topological_order()
        if not layer.is_convolution
    }
