"""PBQP problem representation.

A PBQP instance is an undirected graph.  Every node ``u`` carries a cost
vector ``c_u`` with one entry per alternative; every edge ``(u, v)`` carries a
cost matrix ``C_uv`` indexed by the pair of alternatives chosen for ``u`` and
``v``.  A solution assigns one alternative to every node; its cost is

    sum_u c_u[x_u]  +  sum_{(u,v)} C_uv[x_u, x_v].

Infinite matrix entries encode illegal pairs (the paper's incompatible
primitives whose connection would produce garbage); a finite-cost solution
never selects them.

A graph may carry a leading **batch axis** of ``K`` cost variants over one
topology: every node vector is then ``(K, n)`` and every edge matrix
``(K, a, b)``, and slice ``k`` of every array is one ordinary instance.  The
solver folds all slices in one pass (see :mod:`repro.pbqp.solver`).

A node may also declare **alternative classes**: alternatives with the same
class id must have identical rows in every incident edge matrix (they differ
only in node cost).  The reductions then fold each class as one alternative
carrying the class's minimum node cost, which is exact (see
:mod:`repro.pbqp.reductions`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:
    from repro.pbqp.schedule import Schedule


class ClassGroups(NamedTuple):
    """A node's alternatives grouped by class, as index arrays."""

    #: Alternatives sorted by class id (stable).
    order: np.ndarray
    #: Where each class starts in ``order``.
    starts: np.ndarray
    #: The first alternative of each class: its shared rows.
    representatives: np.ndarray
    #: Each alternative's class position (a row of a class-folded matrix).
    row_of: np.ndarray


def group_classes(classes: np.ndarray) -> Optional[ClassGroups]:
    """The alternatives grouped by class id, or ``None`` when every class is a
    single alternative (nothing to fold)."""
    size = classes.shape[0]
    order = np.argsort(classes, kind="stable")
    ordered = classes[order]
    first = np.empty(size, dtype=bool)  # does a class start here?
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    if starts.size == size:
        return None
    row_of = np.empty(size, dtype=np.intp)
    row_of[order] = np.cumsum(first) - 1
    return ClassGroups(order, starts, order[starts], row_of)


@dataclass
class PBQPNode:
    """One decision variable of a PBQP instance.

    Attributes
    ----------
    node_id:
        Unique integer id assigned by the owning graph.
    name:
        Optional human-readable name (the DNN layer name in our encoding).
    costs:
        Cost vector, one entry per alternative, or ``(K, n)`` in a batched
        graph.  May contain ``inf`` for alternatives that are individually
        illegal.
    labels:
        Optional human-readable names of the alternatives (primitive names in
        our encoding); if given, must have one entry per alternative.
    classes:
        Optional class id of every alternative.  Alternatives sharing an id
        must have identical rows in every incident edge matrix.
    """

    node_id: int
    name: str
    costs: np.ndarray
    labels: Optional[Tuple[str, ...]] = None
    classes: Optional[np.ndarray] = None
    #: The classes as index arrays, or ``None`` when every class is a single
    #: alternative (nothing to fold).
    class_groups: Optional[ClassGroups] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.costs = np.asarray(self.costs, dtype=float).copy()
        if self.costs.ndim not in (1, 2) or self.costs.shape[-1] == 0:
            raise ValueError(f"node {self.name!r} needs a non-empty 1D cost vector")
        size = self.costs.shape[-1]
        if self.labels is not None and len(self.labels) != size:
            raise ValueError(
                f"node {self.name!r}: {len(self.labels)} labels for {size} alternatives"
            )
        if self.classes is not None:
            self.classes = np.asarray(self.classes)
            if self.classes.shape != (size,):
                raise ValueError(
                    f"node {self.name!r}: {self.classes.size} classes for {size} alternatives"
                )
            self.class_groups = group_classes(self.classes)

    @classmethod
    def _trusted(
        cls,
        node_id: int,
        name: str,
        costs: np.ndarray,
        labels: Optional[Tuple[str, ...]],
        classes: Optional[np.ndarray],
        class_groups: Optional[ClassGroups],
    ) -> "PBQPNode":
        """A node from parts the caller has already checked: ``costs`` is a
        float array kept as given (not copied) and ``class_groups`` is taken
        as the grouping of ``classes``."""
        node = cls.__new__(cls)
        node.node_id, node.name, node.costs, node.labels = node_id, name, costs, labels
        node.classes, node.class_groups = classes, class_groups
        return node

    @property
    def degree_of_freedom(self) -> int:
        """Number of alternatives for this node."""
        return int(self.costs.shape[-1])

    def label_of(self, index: int) -> str:
        """Human-readable name of an alternative."""
        if self.labels is not None:
            return self.labels[index]
        return str(index)


@dataclass
class PBQPEdge:
    """An undirected PBQP edge with its pairwise cost matrix.

    The matrix is stored oriented from ``u`` to ``v``: ``matrix[i, j]`` is the
    cost of selecting alternative ``i`` at ``u`` and ``j`` at ``v`` (in a
    batched graph, ``matrix[k, i, j]`` for slice ``k``).
    """

    u: int
    v: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        # A read-only array (a broadcast view, say) cannot be written through
        # the graph, so it is kept as is; a batched compatibility matrix then
        # stores one (a, b) block for all of its identical slices.
        self.matrix = matrix.copy() if matrix.flags.writeable else matrix
        if self.matrix.ndim not in (2, 3):
            raise ValueError("edge cost matrix must be 2D")
        if self.u == self.v:
            raise ValueError("self edges are not allowed in PBQP")

    @classmethod
    def _trusted(cls, u: int, v: int, matrix: np.ndarray) -> "PBQPEdge":
        """An edge whose float ``matrix`` the caller has already shaped; kept as given."""
        edge = cls.__new__(cls)
        edge.u, edge.v, edge.matrix = u, v, matrix
        return edge

    def oriented(self, source: int, target: int) -> np.ndarray:
        """The cost matrix oriented from ``source`` to ``target``."""
        if (source, target) == (self.u, self.v):
            return self.matrix
        if (source, target) == (self.v, self.u):
            return np.swapaxes(self.matrix, -1, -2)
        raise ValueError(f"edge ({self.u}, {self.v}) does not connect {source} and {target}")


class PBQPGraph:
    """A mutable PBQP instance.

    Nodes are identified by the integer ids returned from :meth:`add_node`:
    ``0, 1, 2, ...`` in the order they are added.  Adding an edge between two
    nodes that are already connected accumulates (adds) the cost matrices,
    which is the standard PBQP convention and is what the selection encoder
    relies on when several cost contributions land on the same DNN edge.

    ``batch`` is ``None`` for an ordinary instance, or the number ``K`` of
    cost variants every node vector and edge matrix carries on a leading axis.
    """

    def __init__(self, batch: Optional[int] = None) -> None:
        if batch is not None and batch < 1:
            raise ValueError("a batched graph needs at least one slice")
        self.batch = batch
        self._nodes: Dict[int, PBQPNode] = {}
        self._edges: Dict[Tuple[int, int], PBQPEdge] = {}
        self._adjacency: Dict[int, set] = {}
        #: The reduction schedule of this graph's topology when its builder
        #: keeps one (every graph of one encoding shares it), or ``None`` to
        #: derive it on every solve.  Adding a node or a new edge changes the
        #: topology, so it clears the schedule.
        self.schedule: Optional["Schedule"] = None

    # -- construction ---------------------------------------------------------

    def add_node(
        self,
        costs: Union[Sequence[float], np.ndarray],
        name: Optional[str] = None,
        labels: Optional[Sequence[str]] = None,
        classes: Optional[Union[Sequence[int], np.ndarray]] = None,
    ) -> int:
        """Add a node and return its id.

        In a batched graph ``costs`` is ``(K, n)``.  ``classes`` optionally
        gives every alternative a class id (see :class:`PBQPNode`).
        """
        costs = np.asarray(costs, dtype=float)
        if costs.ndim != (1 if self.batch is None else 2) or (
            self.batch is not None and costs.shape[0] != self.batch
        ):
            raise ValueError(
                f"node costs have shape {costs.shape}; the graph's batch is {self.batch}"
            )
        self.schedule = None
        node_id = len(self._nodes)
        node = PBQPNode(
            node_id=node_id,
            name=name if name is not None else f"n{node_id}",
            costs=costs,
            labels=tuple(labels) if labels is not None else None,
            classes=np.asarray(classes) if classes is not None else None,
        )
        self._nodes[node_id] = node
        self._adjacency[node_id] = set()
        return node_id

    def add_edge(
        self, u: int, v: int, matrix: Union[Sequence[Sequence[float]], np.ndarray]
    ) -> None:
        """Add (or accumulate onto) the edge between ``u`` and ``v``.

        ``matrix[i][j]`` must be the pairwise cost of alternative ``i`` at
        ``u`` and alternative ``j`` at ``v`` (``matrix[k][i][j]`` in a batched
        graph).  The graph stores a copy, except of a read-only array, which
        it shares.
        """
        if u not in self._nodes or v not in self._nodes:
            raise KeyError(f"both endpoints must exist before adding edge ({u}, {v})")
        if u == v:
            raise ValueError("self edges are not allowed in PBQP")
        matrix = np.asarray(matrix, dtype=float)
        expected: Tuple[int, ...] = (
            self._nodes[u].degree_of_freedom,
            self._nodes[v].degree_of_freedom,
        )
        if self.batch is not None:
            expected = (self.batch,) + expected
        if matrix.shape != expected:
            raise ValueError(
                f"edge ({u}, {v}) cost matrix has shape {matrix.shape}, expected {expected}"
            )
        key = self._edge_key(u, v)
        existing = self._edges.get(key)
        if existing is None:
            self.schedule = None
            self._edges[key] = PBQPEdge(u=key[0], v=key[1], matrix=self._orient(u, v, matrix, key))
            self._adjacency[u].add(v)
            self._adjacency[v].add(u)
        else:
            existing.matrix = existing.matrix + self._orient(u, v, matrix, key)

    def _insert_node(
        self,
        costs: np.ndarray,
        name: str,
        labels: Tuple[str, ...],
        classes: Optional[np.ndarray] = None,
        class_groups: Optional[ClassGroups] = None,
    ) -> int:
        """:meth:`add_node` for a caller that has already checked its parts:
        no shape check, no copy of ``costs``, no regrouping of ``classes``."""
        node_id = len(self._nodes)
        self._nodes[node_id] = PBQPNode._trusted(
            node_id, name, costs, labels, classes, class_groups
        )
        self._adjacency[node_id] = set()
        return node_id

    def _insert_edge(self, u: int, v: int, matrix: np.ndarray) -> None:
        """:meth:`add_edge` for a caller that has already shaped ``matrix``:
        no shape check, and a new edge keeps the array rather than a copy."""
        key = self._edge_key(u, v)
        matrix = self._orient(u, v, matrix, key)
        existing = self._edges.get(key)
        if existing is None:
            self._edges[key] = PBQPEdge._trusted(key[0], key[1], matrix)
            self._adjacency[u].add(v)
            self._adjacency[v].add(u)
        else:
            existing.matrix = existing.matrix + matrix

    @staticmethod
    def _edge_key(u: int, v: int) -> Tuple[int, int]:
        return (u, v) if u < v else (v, u)

    @staticmethod
    def _orient(u: int, v: int, matrix: np.ndarray, key: Tuple[int, int]) -> np.ndarray:
        return matrix if (u, v) == key else np.swapaxes(matrix, -1, -2)

    # -- queries ----------------------------------------------------------------

    @property
    def node_ids(self) -> List[int]:
        return list(self._nodes.keys())

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def node(self, node_id: int) -> PBQPNode:
        return self._nodes[node_id]

    def nodes(self) -> List[PBQPNode]:
        return list(self._nodes.values())

    def edges(self) -> List[PBQPEdge]:
        return list(self._edges.values())

    def edge(self, u: int, v: int) -> PBQPEdge:
        return self._edges[self._edge_key(u, v)]

    def edge_matrix(self, source: int, target: int) -> np.ndarray:
        """The edge cost matrix oriented from ``source`` to ``target``."""
        return self.edge(source, target).oriented(source, target)

    def neighbors(self, node_id: int) -> List[int]:
        return sorted(self._adjacency[node_id])

    def degree(self, node_id: int) -> int:
        return len(self._adjacency[node_id])

    # -- evaluation ---------------------------------------------------------------

    def solution_cost(self, assignment: Dict[int, int]) -> float:
        """Total cost of a full assignment (node costs + edge costs)."""
        missing = set(self._nodes) - set(assignment)
        if missing:
            raise ValueError(f"assignment is missing nodes {sorted(missing)}")
        total = 0.0
        for node_id, node in self._nodes.items():
            total += float(node.costs[assignment[node_id]])
        for edge in self._edges.values():
            total += float(edge.matrix[assignment[edge.u], assignment[edge.v]])
        return total

    def batch_solution_cost(self, assignment: Dict[int, np.ndarray]) -> np.ndarray:
        """Per-slice totals of a batched assignment (one index per slice and
        node), summed in :meth:`solution_cost`'s order."""
        if self.batch is None:
            raise ValueError("only a batched graph has per-slice costs")
        slices = np.arange(self.batch)
        total = np.zeros(slices.size)
        for node_id, node in self._nodes.items():
            total = total + node.costs[slices, assignment[node_id]]
        for edge in self._edges.values():
            total = total + edge.matrix[slices, assignment[edge.u], assignment[edge.v]]
        return total

    def copy(self) -> "PBQPGraph":
        """Deep copy of the instance (node ids are preserved)."""
        return self._rebuild(self.batch, lambda array: array)

    def slice(self, index: int) -> "PBQPGraph":
        """Slice ``index`` of a batched graph as an ordinary instance."""
        if self.batch is None:
            raise ValueError("only a batched graph has slices")
        return self._rebuild(None, lambda array: array[index])

    def _rebuild(self, batch: Optional[int], take) -> "PBQPGraph":
        clone = PBQPGraph(batch)
        for node_id, node in self._nodes.items():
            clone._nodes[node_id] = PBQPNode._trusted(
                node_id,
                node.name,
                take(node.costs).copy(),
                node.labels,
                node.classes,
                node.class_groups,
            )
            clone._adjacency[node_id] = set(self._adjacency[node_id])
        for key, edge in self._edges.items():
            clone._edges[key] = PBQPEdge(u=edge.u, v=edge.v, matrix=take(edge.matrix))
        return clone

    def __repr__(self) -> str:
        return f"PBQPGraph(nodes={self.num_nodes}, edges={self.num_edges})"
