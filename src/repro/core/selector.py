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

A context encodes once.  The first :meth:`PBQPSelector.build_pbqp` call on a
:class:`SelectionContext` builds its :class:`PBQPEncoding`: the node order,
labels and layout classes, which layout every alternative produces and
consumes (as index arrays), the edge and fan-out descriptors, every
convolution alternative's time in one flat array and each tensor shape's
conversion costs as a dense ``L x L`` array over the DT graph's layouts.  The
context keeps it, so every later encode is gathers only: a plain edge matrix
is ``D[out, in]`` and a fan-out chain cost sums the subset's columns in a
fixed left-to-right order (``0.0 + a + b + ...``), never a matrix product
(``inf * 0`` is NaN, and BLAS may reorder the sum), so the encoded graph is
bit-identical to the per-cell formulation.  The encoding lives and dies with
its context (the Session keeps contexts in a bounded LRU); a context with
other tables is a new context, with a new encoding.  Every graph an encoding
builds has one topology, so the encoding derives its reduction schedule from
the first graph and hands it to every later one, whose solves only replay it
(see :mod:`repro.pbqp.solver`).

Every convolution node declares its alternatives' **layout classes**: two
primitives reading and writing the same (input, output) layout pair have
identical rows in every incident matrix, so the solver folds each class once
(exactly; see :mod:`repro.pbqp.reductions`).

``build_pbqp`` can also encode ``K`` cost variants of one context over one
topology (:class:`CostVariants`): the variants turn the encoding's arrays
into ``(K, N)`` conv costs and ``(K, S, L, L)`` conversion costs, so every
edge matrix is the same gather with a leading batch axis.  The
multi-objective frontier encodes all of its workspace caps and
scalarisations this way and solves them in one batched PBQP pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Protocol, Tuple

import numpy as np

from repro.core.legalize import LegalizationIndex, finalize_plan
from repro.core.plan import NetworkPlan
from repro.cost.platform import Platform
from repro.cost.tables import CostTables, Shape
from repro.graph.layer import LayerKind
from repro.graph.network import Network
from repro.layouts.dt_graph import DTGraph
from repro.layouts.layout import CHW, Layout
from repro.pbqp.graph import ClassGroups, PBQPGraph, group_classes
from repro.pbqp.schedule import Schedule, derive_schedule
from repro.pbqp.solution import PBQPSolution
from repro.pbqp.solver import PBQPSolver
from repro.primitives.registry import PrimitiveLibrary


class CostVariants(Protocol):
    """``K`` cost variants of one selection context, encoded over one topology.

    The encoder hands over the context's :class:`PBQPEncoding` and gets back
    every convolution alternative's costs and every conversion shape's dense
    costs, each with a leading axis of :attr:`batch` slices.
    """

    @property
    def batch(self) -> int:
        """The number ``K`` of variants."""
        ...

    def costs(self, encoding: "PBQPEncoding") -> Tuple[np.ndarray, np.ndarray]:
        """``(K, N)`` costs in the order of ``encoding.time`` and
        ``(K, S, L, L)`` conversion costs in the order of ``encoding.dt_time``."""
        ...


@dataclass
class SelectionContext:
    """Everything a selection strategy needs about one (network, platform, threads).

    :meth:`repro.api.Session.context_for` builds one with tables priced by the
    session's cost model; the tables are profiled once at construction and shared by
    every strategy, mirroring the paper's "profile once, ship the cost
    tables" workflow.

    The tables a context holds are immutable: the context encodes them into
    PBQP once (:meth:`encoding`) and indexes them for legalization once
    (:meth:`legalization`), and every later solve reuses both.  A caller who
    wants other tables makes a new context
    (``dataclasses.replace(context, tables=...)``), which starts with
    neither.
    """

    network: Network
    library: PrimitiveLibrary
    dt_graph: DTGraph
    platform_name: Optional[str]
    threads: int
    tables: CostTables
    platform: Optional[Platform] = None
    #: Minibatch size the context's cost tables were priced for.
    batch: int = 1
    #: Numeric precision the context's cost tables were priced for.
    dtype: str = "fp32"
    _single_thread_tables: Optional[CostTables] = field(default=None, repr=False)
    #: Produces the single-threaded tables of a multithreaded context on
    #: first use.  The Session builds them like any other tables (and
    #: therefore through its persistent store, if it has one).
    single_thread_tables_factory: Optional[Callable[[], CostTables]] = field(
        default=None, repr=False, compare=False
    )
    _encoding: Optional["PBQPEncoding"] = field(
        default=None, init=False, repr=False, compare=False
    )
    _legalization: Optional[LegalizationIndex] = field(
        default=None, init=False, repr=False, compare=False
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

    def encoding(self) -> "PBQPEncoding":
        """The context's PBQP encoding, built on first use.

        Two threads that ask at once may each build one; the encodings are
        equal, and the context keeps whichever is stored last.
        """
        encoding = self._encoding
        if encoding is None:
            encoding = self._encoding = PBQPEncoding(self)
        return encoding

    def legalization(self) -> LegalizationIndex:
        """The index :func:`~repro.core.legalize.finalize_plan` reads, built
        on first use (two threads may each build an equal one)."""
        index = self._legalization
        if index is None:
            index = self._legalization = LegalizationIndex(self)
        return index


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: the encoding shares it with every graph."""
    array.flags.writeable = False
    return array


class _Alternatives(NamedTuple):
    """What a node's alternatives are, apart from their costs.  Nodes with
    the same labels share one."""

    labels: Tuple[str, ...]
    #: Layout position (into :attr:`PBQPEncoding.names`) of each alternative's
    #: output and input.
    out_pos: np.ndarray
    in_pos: np.ndarray
    #: Class id of each alternative: set on convolution nodes, and only there.
    classes: Optional[np.ndarray] = None
    class_groups: Optional[ClassGroups] = None


class _Subsets(NamedTuple):
    """The alternatives of a fan-out's conversion node: every subset, of up
    to ``width`` layouts, of its consumers' target layouts.  Fan-outs with
    the same targets and width share one."""

    labels: Tuple[str, ...]
    #: Row ``i``: the layout positions of subset ``i``; only its first
    #: ``size`` entries are set.
    members: np.ndarray
    #: Where the subsets of each size ``2, 3, ...`` start (sizes ascend).
    size_starts: Tuple[int, ...]
    #: ``[p, i]``: does subset ``i`` hold the layout at position ``p``?
    holds: np.ndarray


class _FanOut(NamedTuple):
    producer: int
    aux: int
    shape: int
    subsets: _Subsets
    consumers: Tuple[int, ...]


class PBQPEncoding:
    """Everything of a context's PBQP instance that its cost values do not change.

    The node order, labels and layout classes, each alternative's output and
    input layout position, the plain-edge and fan-out descriptors, and the
    time costs as dense arrays: :attr:`time` holds every convolution
    alternative's cost in node order and :attr:`dt_time` every conversion
    shape's ``L x L`` costs over :attr:`names`.  :meth:`graph` turns costs
    of those two shapes into a PBQP graph with gathers only.  The frontier's
    workspace and energy arrays (:meth:`workspace`, :meth:`objectives`) are
    built on first use.

    Every context of a long-running process keeps one, so the per-node and
    per-edge records are flat integer arrays, and nodes with the same labels
    share one :class:`_Alternatives`.
    """

    def __init__(self, context: SelectionContext) -> None:
        network, tables, library = context.network, context.tables, context.library
        wildcard_labels = tuple(context.dt_graph.layout_names)
        names = wildcard_labels + (() if CHW.name in wildcard_labels else (CHW.name,))
        position = {name: index for index, name in enumerate(names)}
        wildcard_pos = _frozen(np.arange(len(wildcard_labels)))
        chw_pos = _frozen(np.array([position[CHW.name]]))
        wildcard = _Alternatives(wildcard_labels, wildcard_pos, wildcard_pos)
        data = _Alternatives((CHW.name,), chw_pos, chw_pos)
        kinds: Dict[Tuple[str, ...], _Alternatives] = {}

        self.names = names
        self._tables = tables
        #: Name and alternatives of every node, in node id order: the layers
        #: in topological order, then one conversion node per fan-out.
        self._node_names: List[str] = []
        self._kinds: List[_Alternatives] = []
        times: List[float] = []
        for layer in network.topological_order():
            if layer.is_convolution:
                costs = tables.node_costs[layer.name]
                labels = tuple(sorted(costs))
                kind = kinds.get(labels)
                if kind is None:
                    kind = kinds[labels] = self._primitives(labels, library, position)
                times.extend(costs[name] for name in kind.labels)
            elif layer.kind is LayerKind.INPUT:
                # The network input arrives in the canonical layout.
                kind = data
            else:
                kind = wildcard
            self._node_names.append(layer.name)
            self._kinds.append(kind)
        self._layers = len(self._kinds)
        self.time = _frozen(np.array(times, dtype=float))
        node_of_layer = {name: index for index, name in enumerate(self._node_names)}

        shapes: Dict[Shape, int] = {}

        def shape_of(layer: str) -> int:
            return shapes.setdefault(tables.shapes[layer], len(shapes))

        edges = [
            (node_of_layer[edge.producer], node_of_layer[edge.consumer], shape_of(edge.producer))
            for edge in network.edges()
            # A fan-out is priced once through its producer's conversion node.
            if len(network.consumers_of(edge.producer)) < 2
        ]
        #: (producer, consumer, shape index) of every plain edge.
        self._edges = _frozen(np.array(edges, dtype=np.int32).reshape(-1, 3))

        # A fan-out producer's conversions are priced once per distinct target
        # layout through an auxiliary node whose alternatives are the candidate
        # *sets* of target layouts (every non-empty subset, up to the fan-out
        # width, of the layouts some consumer can demand).  The producer->aux
        # matrix charges each layout in the set once -- the executor's
        # deduplicated cost -- and each aux->consumer matrix is 0 where the set
        # covers the consumer's input layout and infinite where it does not.
        subsets_of: Dict[Tuple[Tuple[str, ...], int], Tuple[_Subsets, _Alternatives]] = {}
        self._fan_outs: List[_FanOut] = []
        for layer in network.topological_order():
            consumers = network.consumers_of(layer.name)
            if len(consumers) < 2:
                continue
            ids = tuple(node_of_layer[name] for name in consumers)
            demanded = {int(p) for node in ids for p in self._kinds[node].in_pos}
            targets = tuple(sorted(names[p] for p in demanded))
            # A set of k consumers demands at most k distinct layouts, so
            # larger subsets are never selectable and need not be encoded.
            width = min(len(consumers), len(targets))
            if (targets, width) not in subsets_of:
                subsets = self._subsets(targets, width, position)
                subsets_of[targets, width] = (subsets, _Alternatives(subsets.labels, None, None))
            subsets, kind = subsets_of[targets, width]
            aux = len(self._kinds)
            self._node_names.append(f"{layer.name}::conversions")
            self._kinds.append(kind)
            self._fan_outs.append(
                _FanOut(node_of_layer[layer.name], aux, shape_of(layer.name), subsets, ids)
            )

        # Each node's slice of one cost buffer: the convolution alternatives
        # first, in node order (the order of ``time``), then every other node's.
        starts = []
        conv_at, other_at = 0, len(times)
        for kind in self._kinds:
            if kind.classes is not None:
                starts.append(conv_at)
                conv_at += len(kind.labels)
            else:
                starts.append(other_at)
                other_at += len(kind.labels)
        self._starts = _frozen(np.array(starts, dtype=np.int32))
        self._alternatives = other_at
        self._shapes = shapes
        self.dt_time = _frozen(self._dense(tables.dt_costs, None))
        self._workspace: Optional[np.ndarray] = None
        self._objectives: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        #: The reduction schedule every graph of the encoding shares, derived
        #: from the first one.
        self._schedule: Optional[Schedule] = None

    @staticmethod
    def _primitives(
        labels: Tuple[str, ...], library: PrimitiveLibrary, position: Dict[str, int]
    ) -> _Alternatives:
        primitives = [library.get(name) for name in labels]
        out_pos = np.array([position[p.output_layout.name] for p in primitives])
        in_pos = np.array([position[p.input_layout.name] for p in primitives])
        # Alternatives with one (input, output) layout pair share every edge
        # row: one class.
        classes = out_pos * len(position) + in_pos
        groups = group_classes(classes)
        if groups is not None:
            groups = ClassGroups(*(_frozen(array) for array in groups))
        return _Alternatives(
            labels, _frozen(out_pos), _frozen(in_pos), _frozen(classes), groups
        )

    @staticmethod
    def _subsets(
        targets: Tuple[str, ...], width: int, position: Dict[str, int]
    ) -> _Subsets:
        combos = [
            combo
            for size in range(1, width + 1)
            for combo in itertools.combinations(targets, size)
        ]
        members = np.zeros((len(combos), width), dtype=np.intp)
        holds = np.zeros((len(position), len(combos)), dtype=bool)
        size_starts = []
        for index, combo in enumerate(combos):
            if index and len(combo) > len(combos[index - 1]):
                size_starts.append(index)
            members[index, : len(combo)] = [position[name] for name in combo]
            holds[members[index, : len(combo)], index] = True
        return _Subsets(
            tuple("+".join(combo) for combo in combos),
            _frozen(members),
            tuple(size_starts),
            _frozen(holds),
        )

    def _dense(self, per_shape, default: Optional[float]) -> np.ndarray:
        """``(S, L, L)``: each shape's ``(src, dst)`` values over :attr:`names`
        (a missing pair is ``default``, or a ``KeyError`` without one)."""
        names = self.names
        pairs = [[(src, dst) for dst in names] for src in names]
        dense = np.empty((len(self._shapes), len(names), len(names)))
        for shape, index in self._shapes.items():
            if default is None:
                values = per_shape[shape]
                dense[index] = [[values[pair] for pair in row] for row in pairs]
            else:
                values = per_shape.get(shape, {})
                dense[index] = [[values.get(pair, default) for pair in row] for row in pairs]
        return dense

    def _per_alternative(self, per_layer: Dict[str, Dict[str, float]]) -> np.ndarray:
        """``per_layer``'s value of every convolution alternative, in the order
        of :attr:`time` (an absent value is 0)."""
        values: List[float] = []
        for layer, kind in zip(self._node_names, self._kinds):
            if kind.classes is not None:
                of = per_layer.get(layer, {})
                values.extend(of.get(name, 0.0) for name in kind.labels)
        return _frozen(np.array(values, dtype=float))

    def workspace(self) -> Tuple[np.ndarray, np.ndarray]:
        """Workspace of every convolution alternative (``objectives()[0]``)
        and where each convolution node's alternatives start in it.  The
        array is built on first use."""
        workspace = self._workspace
        if workspace is None:
            workspace = self._workspace = self._per_alternative(self._tables.node_workspace)
        convolutions = [kind.classes is not None for kind in self._kinds]
        return workspace, self._starts[convolutions]

    def objectives(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Workspace and energy of every convolution alternative (in the order
        of :attr:`time`) and conversion energy of every shape (in the order of
        :attr:`dt_time`); absent values are 0.  Built on first use."""
        objectives = self._objectives
        if objectives is None:
            objectives = self._objectives = (
                self.workspace()[0],
                self._per_alternative(self._tables.node_energy),
                _frozen(self._dense(self._tables.dt_energy, 0.0)),
            )
        return objectives

    def graph(
        self, node_costs: np.ndarray, dt_costs: np.ndarray, batch: Optional[int] = None
    ) -> Tuple[PBQPGraph, Dict[int, str]]:
        """The PBQP graph of costs shaped like :attr:`time` and :attr:`dt_time`
        (with a leading axis of ``batch`` slices when ``batch`` is set), and
        the layer of every node id.

        Every node vector and edge matrix is new memory of this call, except
        the batched aux->consumer compatibility matrices, which are read-only
        broadcasts.
        """
        lead: Tuple[int, ...] = () if batch is None else (batch,)
        if node_costs.shape != lead + self.time.shape or dt_costs.shape != (
            lead + self.dt_time.shape
        ):
            raise ValueError(
                f"costs of shapes {node_costs.shape} and {dt_costs.shape} do not fit "
                f"an encoding of {self.time.shape} and {self.dt_time.shape} (batch {batch})"
            )
        graph = PBQPGraph(batch)
        buffer = np.zeros(lead + (self._alternatives,))
        buffer[..., : self.time.shape[0]] = node_costs
        kinds = self._kinds
        for name, kind, start in zip(self._node_names, kinds, self._starts.tolist()):
            graph._insert_node(
                buffer[..., start : start + len(kind.labels)],
                name,
                kind.labels,
                kind.classes,
                kind.class_groups,
            )

        for u, v, shape in self._edges.tolist():
            matrix = dt_costs[..., shape, kinds[u].out_pos[:, None], kinds[v].in_pos]
            graph._insert_edge(u, v, matrix)

        for producer, aux, shape, subsets, consumers in self._fan_outs:
            members = subsets.members
            rows = dt_costs[..., shape, kinds[producer].out_pos, :]
            # Fold each subset's chain costs left to right: 0.0 + a + b + ...
            # (the subsets of more than j layouts start at size_starts[j - 1]).
            chains = rows[..., members[:, 0]]
            chains += 0.0
            for column, start in enumerate(subsets.size_starts, start=1):
                chains[..., start:] += rows[..., members[start:, column]]
            graph._insert_edge(producer, aux, chains)
            for consumer in consumers:
                compatibility = np.where(subsets.holds[kinds[consumer].in_pos], 0.0, math.inf)
                if batch is not None:
                    compatibility = np.broadcast_to(compatibility, lead + compatibility.shape)
                graph._insert_edge(consumer, aux, compatibility)
        if self._schedule is None:
            # Two threads may each derive one; they are equal.
            self._schedule = derive_schedule(graph)
        graph.schedule = self._schedule
        return graph, dict(zip(range(self._layers), self._node_names))


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
        encoding = context.encoding()
        if variants is None:
            return encoding.graph(encoding.time, encoding.dt_time)
        node_costs, dt_costs = variants.costs(encoding)
        return encoding.graph(node_costs, dt_costs, variants.batch)

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
        convolutions = context.legalization().convolutions
        for node_id, index in assignment.items():
            layer_name = id_to_layer.get(node_id)
            if layer_name is None:
                continue  # auxiliary conversion node, not a layer decision
            label = graph.node(node_id).label_of(index)
            if layer_name in convolutions:
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
