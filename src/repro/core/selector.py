"""The PBQP-based primitive selector (sections 3.2 and 3.3 of the paper).

The encoding follows the paper exactly:

* every DNN layer becomes a PBQP node;
* a **convolution** node's alternatives are the applicable primitives and its
  cost vector is the profiled execution time of each (the cost tables);
* every **other** layer is a "dummy node, accepting any input and output
  layouts, and having zero cost" (section 5.2) — its alternatives are the
  layouts of the DT graph, all with zero cost.  The network input is pinned
  to the canonical CHW layout, since that is the format the data arrives in;
* every data-flow edge becomes a PBQP edge whose cost matrix is indexed by
  the producer's output layout and the consumer's input layout and holds the
  cheapest layout-conversion chain cost for the tensor shape flowing across
  that edge (all-pairs shortest paths over the DT graph, section 3.1);
* the PBQP solver finds the minimum-cost assignment, which the legalizer
  turns into an executable :class:`~repro.core.plan.NetworkPlan`.

One place this reproduction deliberately departs from the paper's encoding:
the executor deduplicates conversion chains by (producer, target layout) —
a producer fanning out into several consumers that demand the same layout
converts once and reuses the result — so pricing the chain on every edge
would double-count it (the plan verifier's RV140 rule used to quantify that
gap on ResNet-18's ``pool1``).  For a fan-out producer the encoder therefore
replaces its per-edge cost matrices with one auxiliary *conversion node*
whose alternatives are the sets of target layouts the consumers may demand:
the producer→aux edge prices each candidate set once (the executor's cost),
and the aux→consumer edges are zero/infinity compatibility matrices forcing
the chosen set to cover every consumer's demand.  The objective the solver
minimizes then equals the cost the executor pays, mixed-target fan-outs
included, and the auxiliary node folds away under the ordinary R1/R2
reductions (the aux simply takes over the producer's adjacency), so the
solver stays exact on the paper's graphs.

Every edge matrix is an array gather rather than one dictionary lookup per
cell.  Within one :meth:`PBQPSelector.build_pbqp` call each tensor shape's
conversion costs become a dense ``L x L`` array over the DT graph's layouts,
and each node records which layout every alternative produces and consumes
as index arrays; a plain edge matrix is then ``D[np.ix_(out, in)]``.  A
fan-out chain cost sums the subset's columns in a fixed left-to-right order
(``0.0 + a + b + ...``), never a matrix product (``inf * 0`` is NaN, and BLAS
may reorder the sum), so the encoded graph is bit-identical to the per-cell
formulation.  The dense arrays live only for the call: gated and scalarized
tables are new objects, so nothing is memoized across calls.

Every convolution node declares its alternatives' **layout classes**: two
primitives reading and writing the same (input, output) layout pair have
identical rows in every incident matrix, so the solver folds each class once
(exactly; see :mod:`repro.pbqp.reductions`).

``build_pbqp`` can also encode ``K`` cost variants of one context over one
topology (:class:`CostVariants`): conv node vectors become ``(K, n)`` and the
dense DT arrays ``(K, L, L)``, so every edge matrix is the same gather with a
leading batch axis.  The multi-objective frontier encodes all of its
workspace caps and scalarisations this way and solves them in one batched
PBQP pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.legalize import finalize_plan
from repro.core.plan import NetworkPlan
from repro.cost.platform import Platform
from repro.cost.tables import CostTables, Shape
from repro.graph.layer import LayerKind
from repro.graph.network import Network
from repro.layouts.dt_graph import DTGraph
from repro.layouts.layout import CHW, Layout
from repro.pbqp.graph import PBQPGraph
from repro.pbqp.solution import PBQPSolution
from repro.pbqp.solver import PBQPSolver
from repro.primitives.registry import PrimitiveLibrary


class CostVariants(Protocol):
    """``K`` cost variants of one selection context, encoded over one topology.

    The encoder asks for a convolution layer's node costs in its label order
    and for a tensor shape's conversion costs over its layout order; both
    come back with a leading axis of :attr:`batch` slices.
    """

    @property
    def batch(self) -> int:
        """The number ``K`` of variants."""
        ...

    def node_costs(self, layer: str, labels: Sequence[str]) -> np.ndarray:
        """``(K, len(labels))`` costs of a convolution layer's primitives."""
        ...

    def dt_costs(self, shape: Shape, layouts: Sequence[str]) -> np.ndarray:
        """``(K, L, L)`` conversion costs between ``layouts`` at ``shape``."""
        ...


@dataclass
class SelectionContext:
    """Everything a selection strategy needs about one (network, platform, threads).

    :meth:`repro.api.Session.context_for` builds one from the session's cost
    provider; the cost tables are profiled once at construction and shared by
    every strategy, mirroring the paper's "profile once, ship the cost
    tables" workflow.
    """

    network: Network
    library: PrimitiveLibrary
    dt_graph: DTGraph
    platform_name: str
    threads: int
    tables: CostTables
    platform: Optional[Platform] = None
    #: Minibatch size the context's cost tables were priced for.
    batch: int = 1
    #: Numeric precision the context's cost tables were priced for.
    dtype: str = "fp32"
    _single_thread_tables: Optional[CostTables] = field(default=None, repr=False)
    #: Produces the single-threaded tables of a multithreaded context on
    #: first use.  The Session routes them through its cost provider (and
    #: therefore through a persistent store).
    single_thread_tables_factory: Optional[Callable[[], CostTables]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def platform_vector_width(self) -> int:
        """Native FP32 SIMD width of the target platform (defaults to 8)."""
        return self.platform.vector_width if self.platform is not None else 8

    @property
    def platform_features(self) -> frozenset:
        """Capability set of the target platform (empty when platform-less).

        Strategy gating (:attr:`repro.core.strategies.Strategy.applies_to`)
        consults this instead of hard-coding platform names, so registered
        third-party platforms gate correctly by declaring features.
        """
        return self.platform.features if self.platform is not None else frozenset()

    @property
    def tables_single_thread(self) -> CostTables:
        """Cost tables profiled for single-threaded execution.

        Used by the framework emulations, which apply their own (poorer)
        multithreaded scaling on top of single-thread costs.
        """
        if self.threads == 1:
            return self.tables
        if self._single_thread_tables is None:
            if self.single_thread_tables_factory is None:
                raise ValueError(
                    f"a {self.threads}-thread context needs a "
                    "single_thread_tables_factory to price single-threaded tables"
                )
            self._single_thread_tables = self.single_thread_tables_factory()
        return self._single_thread_tables


class PBQPSelector:
    """Encode primitive selection as PBQP, solve it, and emit a plan."""

    def __init__(self, solver: Optional[PBQPSolver] = None) -> None:
        self.solver = solver or PBQPSolver()

    # -- encoding -----------------------------------------------------------------

    def build_pbqp(
        self, context: SelectionContext, variants: Optional[CostVariants] = None
    ) -> Tuple[PBQPGraph, Dict[int, str]]:
        """Build the PBQP instance for a selection context.

        Returns the graph and a mapping from PBQP node id to DNN layer name.
        With ``variants``, the graph carries their ``K`` cost variants on a
        batch axis instead of the context's own costs.
        """
        network = context.network
        tables = context.tables
        wildcard_labels = context.dt_graph.layout_names
        names = wildcard_labels + ([] if CHW.name in wildcard_labels else [CHW.name])
        position = {name: index for index, name in enumerate(names)}
        wildcard = np.arange(len(wildcard_labels))
        lead: Tuple[int, ...] = () if variants is None else (variants.batch,)

        dense: Dict[Shape, np.ndarray] = {}

        def dt_matrix(shape: Shape) -> np.ndarray:
            """The shape's conversion costs as an L x L array over ``names``."""
            matrix = dense.get(shape)
            if matrix is None:
                if variants is not None:
                    matrix = variants.dt_costs(shape, names)
                else:
                    costs = tables.dt_costs[shape]
                    matrix = np.array([[costs[(src, dst)] for dst in names] for src in names])
                dense[shape] = matrix
            return matrix

        def gather(matrix: np.ndarray, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
            return matrix[..., rows[:, None], columns[None, :]]

        graph = PBQPGraph(None if variants is None else variants.batch)
        node_of_layer: Dict[str, int] = {}
        id_to_layer: Dict[int, str] = {}
        # Layout index (into ``names``) of each alternative's output/input.
        out_index: Dict[str, np.ndarray] = {}
        in_index: Dict[str, np.ndarray] = {}

        for layer in network.topological_order():
            classes: Optional[np.ndarray] = None
            if layer.is_convolution:
                costs = tables.node_costs[layer.name]
                labels = sorted(costs)
                if variants is not None:
                    vector = variants.node_costs(layer.name, labels)
                else:
                    vector = np.array([costs[name] for name in labels])
                primitives = [context.library.get(name) for name in labels]
                out_index[layer.name] = np.array(
                    [position[p.output_layout.name] for p in primitives]
                )
                in_index[layer.name] = np.array(
                    [position[p.input_layout.name] for p in primitives]
                )
                # Alternatives with one (input, output) layout pair share
                # every edge row: one class.
                classes = out_index[layer.name] * len(names) + in_index[layer.name]
            elif layer.kind is LayerKind.INPUT:
                # The network input arrives in the canonical layout.
                labels = [CHW.name]
                vector = np.zeros(lead + (1,))
                out_index[layer.name] = in_index[layer.name] = np.array([position[CHW.name]])
            else:
                labels = wildcard_labels
                vector = np.zeros(lead + (len(labels),))
                out_index[layer.name] = in_index[layer.name] = wildcard
            node_id = graph.add_node(vector, name=layer.name, labels=labels, classes=classes)
            node_of_layer[layer.name] = node_id
            id_to_layer[node_id] = layer.name

        for edge in network.edges():
            if len(network.consumers_of(edge.producer)) >= 2:
                continue  # priced once through the producer's conversion node below
            matrix = gather(
                dt_matrix(tables.shapes[edge.producer]),
                out_index[edge.producer],
                in_index[edge.consumer],
            )
            graph.add_edge(node_of_layer[edge.producer], node_of_layer[edge.consumer], matrix)

        # A fan-out producer's conversions are priced once per distinct target
        # layout through an auxiliary node whose alternatives are the candidate
        # *sets* of target layouts (every non-empty subset, up to the fan-out
        # width, of the layouts some consumer can demand).  The producer->aux
        # matrix charges each layout in the set once -- the executor's
        # deduplicated cost -- and each aux->consumer matrix is 0 where the set
        # covers the consumer's input layout and infinite where it does not.
        for layer in network.topological_order():
            consumers = network.consumers_of(layer.name)
            if len(consumers) < 2:
                continue
            targets = sorted(
                {names[index] for name in consumers for index in in_index[name]}
            )
            # A set of k consumers demands at most k distinct layouts, so
            # larger subsets are never selectable and need not be encoded.
            groups = [
                np.array(list(itertools.combinations(range(len(targets)), size)))
                for size in range(1, min(len(consumers), len(targets)) + 1)
            ]
            subsets = [[targets[i] for i in row] for group in groups for row in group]
            aux_id = graph.add_node(
                np.zeros(lead + (len(subsets),)),
                name=f"{layer.name}::conversions",
                labels=["+".join(combo) for combo in subsets],
            )
            target_index = np.array([position[name] for name in targets])
            rows = gather(
                dt_matrix(tables.shapes[layer.name]), out_index[layer.name], target_index
            )
            chain_blocks: List[np.ndarray] = []
            member_blocks: List[np.ndarray] = []
            for group in groups:
                # Fold each subset's chain costs left to right: 0.0 + a + b + ...
                block = np.zeros(rows.shape[:-1] + (group.shape[0],))
                for column in group.T:
                    block = block + rows[..., column]
                chain_blocks.append(block)
                member = np.zeros((group.shape[0], len(names)), dtype=bool)
                np.put_along_axis(member, target_index[group], True, axis=1)
                member_blocks.append(member)
            graph.add_edge(
                node_of_layer[layer.name], aux_id, np.concatenate(chain_blocks, axis=-1)
            )
            membership = np.vstack(member_blocks)
            for name in consumers:
                compatibility = np.where(membership[:, in_index[name]], 0.0, math.inf)
                graph.add_edge(
                    aux_id,
                    node_of_layer[name],
                    np.broadcast_to(compatibility, lead + compatibility.shape),
                )

        return graph, id_to_layer

    # -- decoding ---------------------------------------------------------------------

    @staticmethod
    def decode_assignment(
        context: SelectionContext,
        graph: PBQPGraph,
        id_to_layer: Dict[int, str],
        assignment: Dict[int, int],
    ) -> Tuple[Dict[str, str], Dict[str, Layout]]:
        """Split a PBQP assignment into per-layer decisions.

        Returns the primitive name of every convolution layer and the layout
        adopted by every other layer; auxiliary conversion nodes are skipped.
        """
        conv_primitives: Dict[str, str] = {}
        wildcard_layouts: Dict[str, Layout] = {}
        layout_by_name = {layout.name: layout for layout in context.dt_graph.layouts}
        layout_by_name.setdefault(CHW.name, CHW)
        for node_id, index in assignment.items():
            layer_name = id_to_layer.get(node_id)
            if layer_name is None:
                continue  # auxiliary conversion node, not a layer decision
            label = graph.node(node_id).label_of(index)
            if context.network.layer(layer_name).is_convolution:
                conv_primitives[layer_name] = label
            else:
                wildcard_layouts[layer_name] = layout_by_name[label]
        return conv_primitives, wildcard_layouts

    # -- solving ---------------------------------------------------------------------

    def select(self, context: SelectionContext) -> NetworkPlan:
        """Solve the selection problem and return the legalized plan."""
        graph, id_to_layer = self.build_pbqp(context)
        solution = self.solver.solve(graph)
        assert isinstance(solution, PBQPSolution)
        conv_primitives, wildcard_layouts = self.decode_assignment(
            context, graph, id_to_layer, solution.assignment
        )
        plan = finalize_plan(context, "pbqp", conv_primitives, wildcard_layouts)
        stats = self.solver.last_stats
        plan.metadata.update(
            {
                "pbqp_cost": solution.cost,
                "pbqp_optimal": solution.optimal,
                "pbqp_nodes": graph.num_nodes,
                "pbqp_edges": graph.num_edges,
                "solver_seconds": stats.solve_seconds if stats else None,
                "solver_reductions": stats.total_reductions() if stats else None,
            }
        )
        return plan
