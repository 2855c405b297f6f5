"""Optimality-preserving PBQP reductions and the RN heuristic.

The solver follows the classic reduce-and-back-propagate scheme of Scholz &
Eckstein:

* **R0** removes an isolated node; its optimal alternative is simply the
  minimum of its cost vector.
* **R1** removes a degree-1 node by folding, for every alternative of its
  single neighbor, the best combined (node + edge) cost into the neighbor's
  cost vector.
* **R2** removes a degree-2 node by folding the best combined cost for every
  pair of neighbor alternatives into (or onto) the edge between the two
  neighbors.
* **RN** is the heuristic step for irreducible nodes (degree >= 3): an
  alternative is committed greedily and its edge rows are folded into the
  neighbors' cost vectors.  RN does not preserve optimality, which is why the
  solver prefers exhaustive search on small irreducible cores.

Each application returns a *record* carrying everything back-propagation
needs to recover the removed node's optimal alternative once its neighbors
have been decided.  The solver reduces a working copy whose edge matrices it
shares with the caller's graph; reductions replace matrices and never write
into them.

**Batch axis.**  Every function works unchanged on a batched graph (see
:class:`~repro.pbqp.graph.PBQPGraph`): costs carry a leading axis of ``K``
slices, and the same float operations in the same order run on every slice
(R2 is ``c + Mu``, then ``+ Mv``, then a minimum over the removed node's
alternatives; back-propagation is a first-index argmin).  A record then
decides one alternative per slice.  R2's fold runs over chunks of the removed
node's alternatives holding at most :data:`FOLD_CHUNK_ENTRIES` entries, merged
with ``np.minimum``, so its temporaries stay within one chunk however large
``K`` is.

**Alternative classes.**  A node may declare classes: alternatives with
identical rows in every incident matrix.  R2 then works on one row per class
of the removed node, carrying the class's minimum node cost, and R1 and R2
work on one column per class of each neighbor, expanding their results back
to full length.  This is exact, not an approximation.  Columns of one neighbor class
hold the same values, so they fold to the same results.  Rows of one class
differ only in node cost, and with every row term equal ``c + a + b`` is a
monotone function of ``c`` under IEEE rounding, so the minimum over a class
is reached at its cheapest alternative and equals the full fold bit for bit.
Node vectors and the matrices in the graph stay full length.  An R2 record
keeps the node's full cost vector and the class view of each matrix with the
maps from alternatives to its rows and columns, so back-propagation rebuilds
the full-length vector and picks the same first-index alternative as an
unclassed fold would, while the record holds a class-sized copy rather than
keeping a full edge matrix alive until the end of the solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro.pbqp.graph import ClassGroups, PBQPGraph, PBQPNode

#: Largest number of entries one R2 fold chunk holds (slices x chunk
#: alternatives x neighbor alternatives x neighbor alternatives).
FOLD_CHUNK_ENTRIES = 1 << 16

#: An alternative index: an ``int``, or one index per slice in a batched graph.
Choice = Union[int, np.ndarray]


def _pick(array: np.ndarray, index: Choice) -> np.ndarray:
    """``array[..., index]``, with a batched index choosing per slice."""
    if np.ndim(index) == 0:
        return array[..., index]
    shaped = np.reshape(index, (-1,) + (1,) * (array.ndim - 1))
    return np.take_along_axis(array, shaped, axis=-1)[..., 0]


def _choice(indices: np.ndarray) -> Choice:
    """An argmin result as an ``int``, or one index per slice."""
    return int(indices) if np.ndim(indices) == 0 else indices


def _row_map(groups: Optional[ClassGroups]) -> Optional[np.ndarray]:
    return None if groups is None else groups.row_of


def _class_view(
    matrix: np.ndarray, rows: Optional[ClassGroups], columns: Optional[ClassGroups]
) -> np.ndarray:
    """One row per class of the row node and one column per class of the
    column node (all of them where a node declares no classes)."""
    if rows is not None:
        matrix = matrix[..., rows.representatives, :]
    if columns is not None:
        matrix = matrix[..., columns.representatives]
    return matrix


def _class_costs(node: PBQPNode) -> np.ndarray:
    """The node's minimum cost in each class (its costs without classes)."""
    groups = node.class_groups
    if groups is None:
        return node.costs
    return np.minimum.reduceat(node.costs[..., groups.order], groups.starts, axis=-1)


def _expand(array: np.ndarray, row_of: Optional[np.ndarray]) -> np.ndarray:
    """Per-class entries on the last axis, expanded to one per alternative."""
    return array if row_of is None else array[..., row_of]


@dataclass
class ReductionRecord:
    """Base class for reduction records pushed onto the solver's stack."""

    node_id: int

    def back_propagate(self, assignment: Dict[int, Choice]) -> Choice:
        """Decide the removed node's alternative given its neighbors' decisions."""
        raise NotImplementedError


@dataclass
class R0Record(ReductionRecord):
    """Record of an R0 reduction (isolated node)."""

    costs: np.ndarray = None

    def back_propagate(self, assignment: Dict[int, Choice]) -> Choice:
        return _choice(np.argmin(self.costs, axis=-1))


@dataclass
class R1Record(ReductionRecord):
    """Record of an R1 reduction (degree-1 node folded into its neighbor).

    ``choices[..., j]`` is the node's alternative when the neighbor takes
    ``j``: the first-index argmin of ``c + M[:, j]``, the vector
    back-propagation would otherwise rebuild from ``c`` and ``M``.  Taking it
    at fold time, from the array the fold already forms, spares the record
    the edge matrix.
    """

    neighbor: int = -1
    choices: np.ndarray = None

    def back_propagate(self, assignment: Dict[int, Choice]) -> Choice:
        return _choice(_pick(self.choices, assignment[self.neighbor]))


@dataclass
class R2Record(ReductionRecord):
    """Record of an R2 reduction (degree-2 node folded onto the edge between its neighbors).

    The matrices hold one row per class of the node and one column per class
    of each neighbor; ``row_of`` and ``column_of_*`` map alternatives to
    them (``None``: one each).
    """

    costs: np.ndarray = None
    neighbor_u: int = -1
    neighbor_v: int = -1
    matrix_u: np.ndarray = None  # oriented node -> neighbor_u
    matrix_v: np.ndarray = None  # oriented node -> neighbor_v
    row_of: Optional[np.ndarray] = None
    column_of_u: Optional[np.ndarray] = None
    column_of_v: Optional[np.ndarray] = None

    def back_propagate(self, assignment: Dict[int, Choice]) -> Choice:
        combined = (
            self.costs
            + self._column(self.matrix_u, self.column_of_u, assignment[self.neighbor_u])
            + self._column(self.matrix_v, self.column_of_v, assignment[self.neighbor_v])
        )
        return _choice(np.argmin(combined, axis=-1))

    def _column(
        self, matrix: np.ndarray, column_of: Optional[np.ndarray], index: Choice
    ) -> np.ndarray:
        """``M[:, index]`` at full length."""
        if column_of is not None:
            index = column_of[index]
        return _expand(_pick(matrix, index), self.row_of)


@dataclass
class RNRecord(ReductionRecord):
    """Record of an RN heuristic step; the alternative was committed eagerly."""

    chosen: Choice = 0

    def back_propagate(self, assignment: Dict[int, Choice]) -> Choice:
        return self.chosen


# ---------------------------------------------------------------------------
# Reduction applications (they mutate the working graph).  A removed node's
# arrays are never mutated again, so records hold them without copying.
# ---------------------------------------------------------------------------


def apply_r0(graph: PBQPGraph, node_id: int) -> R0Record:
    """Apply R0 to an isolated node and remove it from the graph."""
    if graph.degree(node_id) != 0:
        raise ValueError(f"R0 requires an isolated node, {node_id} has degree {graph.degree(node_id)}")
    node = graph.node(node_id)
    record = R0Record(node_id=node_id, costs=node.costs)
    graph.remove_node(node_id)
    return record


def apply_r1(graph: PBQPGraph, node_id: int) -> R1Record:
    """Apply R1 to a degree-1 node, folding its costs into its neighbor."""
    if graph.degree(node_id) != 1:
        raise ValueError(f"R1 requires a degree-1 node, {node_id} has degree {graph.degree(node_id)}")
    (neighbor,) = graph.neighbors(node_id)
    columns = graph.node(neighbor).class_groups
    matrix = _class_view(graph.edge_matrix(node_id, neighbor), None, columns)
    # For every alternative j of the neighbor, the removed node contributes the
    # best achievable cost min_i (c[i] + M[i, j]).
    combined = graph.node(node_id).costs[..., :, None] + matrix
    choices = _expand(np.argmin(combined, axis=-2), _row_map(columns))
    record = R1Record(node_id=node_id, neighbor=neighbor, choices=choices)
    graph.node(neighbor).costs += _expand(np.min(combined, axis=-2), _row_map(columns))
    graph.remove_node(node_id)
    return record


def _r2_delta(costs: np.ndarray, matrix_u: np.ndarray, matrix_v: np.ndarray) -> np.ndarray:
    """``delta[..., ju, jv] = min_i (c[i] + Mu[i, ju] + Mv[i, jv])``, chunked over ``i``."""
    per_alternative = costs[..., 0].size * matrix_u.shape[-1] * matrix_v.shape[-1]
    step = max(1, FOLD_CHUNK_ENTRIES // per_alternative)
    chunks = (slice(start, start + step) for start in range(0, costs.shape[-1], step))
    parts = (
        np.min(
            costs[..., chunk, None, None]
            + matrix_u[..., chunk, :, None]
            + matrix_v[..., chunk, None, :],
            axis=-3,
        )
        for chunk in chunks
    )
    delta = next(parts)
    for part in parts:
        delta = np.minimum(delta, part)
    return delta


def apply_r2(graph: PBQPGraph, node_id: int) -> R2Record:
    """Apply R2 to a degree-2 node, folding it onto the edge between its neighbors."""
    if graph.degree(node_id) != 2:
        raise ValueError(f"R2 requires a degree-2 node, {node_id} has degree {graph.degree(node_id)}")
    neighbor_u, neighbor_v = graph.neighbors(node_id)
    node = graph.node(node_id)
    columns_u = graph.node(neighbor_u).class_groups
    columns_v = graph.node(neighbor_v).class_groups
    matrix_u = _class_view(graph.edge_matrix(node_id, neighbor_u), node.class_groups, columns_u)
    matrix_v = _class_view(graph.edge_matrix(node_id, neighbor_v), node.class_groups, columns_v)
    record = R2Record(
        node_id=node_id,
        costs=node.costs,
        neighbor_u=neighbor_u,
        neighbor_v=neighbor_v,
        matrix_u=matrix_u,
        matrix_v=matrix_v,
        row_of=_row_map(node.class_groups),
        column_of_u=_row_map(columns_u),
        column_of_v=_row_map(columns_v),
    )
    delta = _r2_delta(_class_costs(node), matrix_u, matrix_v)
    if columns_u is not None:
        delta = delta[..., columns_u.row_of, :]
    graph.remove_node(node_id)
    graph.add_edge(neighbor_u, neighbor_v, _expand(delta, _row_map(columns_v)))
    return record


def apply_rn(graph: PBQPGraph, node_id: int) -> RNRecord:
    """Apply the RN heuristic: commit a locally good alternative and fold it away.

    The heuristic chooses the alternative minimizing the node cost plus, for
    every incident edge, the best-case edge cost (the row minimum).  The
    chosen row of every incident edge matrix is then added to the neighbor's
    cost vector, and the node is removed.  A batched graph commits one
    alternative per slice.
    """
    neighbors = graph.neighbors(node_id)
    node = graph.node(node_id)
    heuristic = node.costs.copy()
    matrices = {}
    for neighbor in neighbors:
        matrix = graph.edge_matrix(node_id, neighbor)
        matrices[neighbor] = matrix
        heuristic = heuristic + np.min(matrix, axis=-1)
    chosen = _choice(np.argmin(heuristic, axis=-1))
    for neighbor in neighbors:
        graph.node(neighbor).costs += _pick(np.swapaxes(matrices[neighbor], -1, -2), chosen)
    graph.remove_node(node_id)
    return RNRecord(node_id=node_id, chosen=chosen)
