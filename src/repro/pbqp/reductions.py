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

The solver does not decide here which node goes next: it replays its
topology's schedule (see :mod:`repro.pbqp.schedule`), and each step names
the node, its neighbors and the edge slots involved.  The functions below
fold that step into a :class:`WorkingCosts`, the solve's flat table of node
vectors and edge matrices; nothing mutates the graph.  Each returns a
*record* carrying everything back-propagation needs to recover the removed
node's optimal alternative once its neighbors have been decided.

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
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.pbqp.graph import ClassGroups, PBQPGraph

#: Largest number of entries one R2 fold chunk holds (slices x chunk
#: alternatives x neighbor alternatives x neighbor alternatives).
FOLD_CHUNK_ENTRIES = 1 << 16

#: An alternative index: an ``int``, or one index per slice in a batched graph.
Choice = Union[int, np.ndarray]


def _pick(array: np.ndarray, index: Choice) -> np.ndarray:
    """``array[..., index]``, with a batched index choosing per slice."""
    if isinstance(index, np.ndarray) and index.ndim:
        middle = (slice(None),) * (array.ndim - 2)
        return array[(np.arange(index.shape[0]),) + middle + (index,)]
    return array[..., index]


def _choice(indices: np.ndarray) -> Choice:
    """An argmin result as an ``int``, or one index per slice."""
    return indices if isinstance(indices, np.ndarray) and indices.ndim else int(indices)


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


def _class_costs(costs: np.ndarray, groups: Optional[ClassGroups]) -> np.ndarray:
    """A node's minimum cost in each class (its costs without classes)."""
    if groups is None:
        return costs
    return np.minimum.reduceat(costs[..., groups.order], groups.starts, axis=-1)


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
        return _choice(self.costs.argmin(axis=-1))


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
        return _choice(combined.argmin(axis=-1))

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


class WorkingCosts:
    """The arrays one solve folds, indexed as its schedule names them.

    ``costs[n]`` is a copy of node ``n``'s cost vector, because R1 and RN
    fold into it in place, and ``matrices[slot]`` the matrix of the edge in
    that slot, oriented from the edge's lower node id to its higher one
    (``None`` before an R2 fold creates the edge and after a reduction
    removes it).  The matrices start as the graph's own: reductions replace
    matrices and never write into them.  A removed node's arrays are never
    written again, so records hold them without copying.
    """

    __slots__ = ("costs", "groups", "matrices")

    def __init__(self, graph: PBQPGraph, slot_count: int) -> None:
        nodes = graph.nodes()
        self.costs = [node.costs.copy() for node in nodes]
        self.groups = [node.class_groups for node in nodes]
        self.matrices: List[Any] = [edge.matrix for edge in graph.edges()]
        self.matrices.extend([None] * (slot_count - len(self.matrices)))

    def matrix(self, slot: int, source: int, target: int) -> np.ndarray:
        """The matrix in ``slot``, oriented from ``source`` to ``target``."""
        matrix = self.matrices[slot]
        return matrix if source < target else np.swapaxes(matrix, -1, -2)


# ---------------------------------------------------------------------------
# Reduction applications.  Each removes ``node`` from the working costs: it
# folds the node into its neighbors and drops the matrices of its edges.
# ---------------------------------------------------------------------------


def apply_r0(work: WorkingCosts, node: int) -> R0Record:
    """Apply R0 to an isolated node."""
    return R0Record(node_id=node, costs=work.costs[node])


def apply_r1(work: WorkingCosts, node: int, neighbor: int, slot: int) -> R1Record:
    """Apply R1 to a degree-1 node, folding its costs into its neighbor."""
    columns = work.groups[neighbor]
    matrix = _class_view(work.matrix(slot, node, neighbor), None, columns)
    # For every alternative j of the neighbor, the removed node contributes the
    # best achievable cost min_i (c[i] + M[i, j]).
    combined = work.costs[node][..., :, None] + matrix
    choices = _expand(combined.argmin(axis=-2), _row_map(columns))
    work.costs[neighbor] += _expand(combined.min(axis=-2), _row_map(columns))
    work.matrices[slot] = None
    return R1Record(node_id=node, neighbor=neighbor, choices=choices)


def _r2_delta(costs: np.ndarray, matrix_u: np.ndarray, matrix_v: np.ndarray) -> np.ndarray:
    """``delta[..., ju, jv] = min_i (c[i] + Mu[i, ju] + Mv[i, jv])``, chunked over ``i``."""
    per_alternative = costs[..., 0].size * matrix_u.shape[-1] * matrix_v.shape[-1]
    step = max(1, FOLD_CHUNK_ENTRIES // per_alternative)
    chunks = (slice(start, start + step) for start in range(0, costs.shape[-1], step))
    parts = (
        (
            costs[..., chunk, None, None]
            + matrix_u[..., chunk, :, None]
            + matrix_v[..., chunk, None, :]
        ).min(axis=-3)
        for chunk in chunks
    )
    delta = next(parts)
    for part in parts:
        delta = np.minimum(delta, part)
    return delta


def apply_r2(
    work: WorkingCosts,
    node: int,
    neighbor_u: int,
    neighbor_v: int,
    slot_u: int,
    slot_v: int,
    fold: int,
    merges: bool,
) -> R2Record:
    """Apply R2 to a degree-2 node, folding it onto the edge between its
    neighbors (``neighbor_u < neighbor_v``): onto the matrix in ``fold`` when
    ``merges``, else into a new one there."""
    groups = work.groups[node]
    columns_u, columns_v = work.groups[neighbor_u], work.groups[neighbor_v]
    matrix_u = _class_view(work.matrix(slot_u, node, neighbor_u), groups, columns_u)
    matrix_v = _class_view(work.matrix(slot_v, node, neighbor_v), groups, columns_v)
    costs = work.costs[node]
    record = R2Record(
        node_id=node,
        costs=costs,
        neighbor_u=neighbor_u,
        neighbor_v=neighbor_v,
        matrix_u=matrix_u,
        matrix_v=matrix_v,
        row_of=_row_map(groups),
        column_of_u=_row_map(columns_u),
        column_of_v=_row_map(columns_v),
    )
    delta = _r2_delta(_class_costs(costs, groups), matrix_u, matrix_v)
    if columns_u is not None:
        delta = delta[..., columns_u.row_of, :]
    delta = _expand(delta, _row_map(columns_v))
    work.matrices[fold] = work.matrices[fold] + delta if merges else delta
    work.matrices[slot_u] = work.matrices[slot_v] = None
    return record


def apply_rn(
    work: WorkingCosts, node: int, neighbors: Sequence[int], slots: Sequence[int]
) -> RNRecord:
    """Apply the RN heuristic: commit a locally good alternative and fold it away.

    The heuristic chooses the alternative minimizing the node cost plus, for
    every incident edge, the best-case edge cost (the row minimum).  The
    chosen row of every incident edge matrix is then added to the neighbor's
    cost vector.  A batched graph commits one alternative per slice.
    """
    matrices = [work.matrix(slot, node, neighbor) for neighbor, slot in zip(neighbors, slots)]
    heuristic = work.costs[node].copy()
    for matrix in matrices:
        heuristic = heuristic + matrix.min(axis=-1)
    chosen = _choice(heuristic.argmin(axis=-1))
    for neighbor, slot, matrix in zip(neighbors, slots, matrices):
        work.costs[neighbor] += _pick(np.swapaxes(matrix, -1, -2), chosen)
        work.matrices[slot] = None
    return RNRecord(node_id=node, chosen=chosen)
