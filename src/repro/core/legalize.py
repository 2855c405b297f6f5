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

What the phase reads of a context besides the choices -- the layer order
with convolution flags, and every edge with its producer's output shape --
is a :class:`LegalizationIndex` the context builds once and keeps, like its
PBQP encoding; a call then walks tuples and the tables' dicts.  The
multi-objective frontier calls it once per distinct candidate: a batched
slice whose decoded choices repeat an earlier candidate is dropped before it
is legalized.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple, TYPE_CHECKING

from repro.core.plan import EdgeDecision, LayerDecision, NetworkPlan, conversion_groups
from repro.cost.tables import Shape
from repro.layouts.layout import CHW, Layout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.selector import SelectionContext


class IllegalPlanError(ValueError):
    """Raised when a required layout conversion has no path in the DT graph."""


class LegalizationIndex:
    """What legalization reads of a context apart from the choices.

    The layers in execution order with their convolution flags, and every
    data-flow edge (in :meth:`~repro.graph.network.Network.edges` order) with
    its producer's output shape.  :meth:`SelectionContext.legalization`
    builds one on first use and keeps it, so a legalization walks tuples
    instead of rebuilding the network's order and edges.
    """

    def __init__(self, context: "SelectionContext") -> None:
        network, shapes = context.network, context.tables.shapes
        #: (layer name, is convolution) of every layer, in execution order.
        self.layers: Tuple[Tuple[str, bool], ...] = tuple(
            (layer.name, layer.is_convolution) for layer in network.topological_order()
        )
        self.convolutions: FrozenSet[str] = frozenset(
            name for name, convolution in self.layers if convolution
        )
        #: (producer, consumer, producer's output shape) of every edge.
        self.edges: Tuple[Tuple[str, str, Shape], ...] = tuple(
            (edge.producer, edge.consumer, shapes[edge.producer]) for edge in network.edges()
        )


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
    index = context.legalization()
    tables = context.tables
    library = context.library

    missing = index.convolutions - conv_primitives.keys()
    if missing:
        raise ValueError(f"no primitive chosen for convolution layers {sorted(missing)}")

    node_costs = tables.node_costs
    node_workspace, node_energy = tables.node_workspace, tables.node_energy
    node_accuracy = tables.node_accuracy
    layer_decisions: Dict[str, LayerDecision] = {}
    for name, convolution in index.layers:
        if convolution:
            primitive_name = conv_primitives[name]
            primitive = library.get(primitive_name)
            layer_decisions[name] = LayerDecision(
                layer=name,
                primitive=primitive_name,
                input_layout=primitive.input_layout,
                output_layout=primitive.output_layout,
                cost=node_costs[name][primitive_name],
                workspace_bytes=node_workspace.get(name, {}).get(primitive_name, 0.0),
                energy_j=node_energy.get(name, {}).get(primitive_name, 0.0),
                accuracy_loss=node_accuracy.get(name, {}).get(primitive_name, 0.0),
            )
        else:
            if name not in wildcard_layouts:
                raise ValueError(f"no layout chosen for non-convolution layer {name!r}")
            layout = wildcard_layouts[name]
            layer_decisions[name] = LayerDecision(
                layer=name, primitive=None, input_layout=layout, output_layout=layout
            )

    dt_paths, dt_energy = tables.dt_paths, tables.dt_energy
    edge_decisions = []
    for producer, consumer, shape in index.edges:
        source = layer_decisions[producer].output_layout
        target = layer_decisions[consumer].input_layout
        pair = (source.name, target.name)
        path = dt_paths[shape][pair]
        if not path.reachable:
            raise IllegalPlanError(
                f"edge {producer!r} -> {consumer!r}: no conversion chain from "
                f"{source.name} to {target.name}"
            )
        edge_decisions.append(
            EdgeDecision(
                producer=producer,
                consumer=consumer,
                source_layout=source,
                target_layout=target,
                chain=path.chain,
                cost=path.cost,
                energy_j=dt_energy.get(shape, {}).get(pair, 0.0),
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
        network_name=context.network.name,
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
    network = context.network
    layouts: Dict[str, Layout] = {}
    output_layout: Dict[str, Layout] = {}
    for name, convolution in context.legalization().layers:
        if convolution:
            output_layout[name] = context.library.get(conv_primitives[name]).output_layout
            continue
        producers = network.inputs_of(name)
        layouts[name] = output_layout[producers[0]] if producers else CHW
        output_layout[name] = layouts[name]
    return layouts


def fixed_layouts(context: "SelectionContext", layout: Layout) -> Dict[str, Layout]:
    """Assign one fixed layout to every non-convolution layer (canonical-layout strategies)."""
    return {
        name: layout for name, convolution in context.legalization().layers if not convolution
    }
