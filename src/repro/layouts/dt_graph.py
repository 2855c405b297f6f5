"""The data-layout transformation (DT) graph.

Section 3.1 of the paper: treat each supported data layout as a node and each
*direct* layout-conversion routine as a directed edge.  A conversion between
two layouts is possible iff there is a directed path between the corresponding
nodes; the cheapest conversion is the shortest path, where edge weights are
the (size-dependent) execution costs of the direct routines.  The paper
computes the all-pairs shortest paths ahead of time; pairs with no path get
infinite cost.

:class:`DTGraph` implements exactly this.  One Floyd–Warshall pass solves
every tensor shape of a network at once: an ``(S, L, L)`` distance array and
a successor array over ``S`` shapes and ``L`` layouts, relaxed through each
intermediate layout in turn with a strict ``<`` (so every cost is the same
IEEE sum and every tie resolves the same way as a per-shape scalar loop).
Conversion chains are reconstructed once per distinct successor matrix and
shared by every shape that has it.  Reachability is the set of finite
entries of the same computation.
"""

from __future__ import annotations

import math
from itertools import starmap
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.layouts.layout import Layout
from repro.layouts.transforms import LayoutTransform, TransformChain

Shape = Tuple[int, int, int]

#: A cost function mapping a direct transform and tensor shape to a scalar cost.
TransformCostFn = Callable[[LayoutTransform, Shape], float]


def element_traffic_cost(transform: LayoutTransform, shape: Shape) -> float:
    """Default cost function: the element traffic of the direct transform."""
    return transform.element_traffic(*shape)


class DTPath(NamedTuple):
    """The cheapest conversion between two layouts for a given tensor shape.

    ``cost`` is ``math.inf`` and ``chain`` is ``None`` when the target layout
    is unreachable from the source layout.  A named tuple: an all-pairs
    solution builds one per ordered layout pair and shape.
    """

    source: Layout
    target: Layout
    cost: float
    chain: Optional[TransformChain]

    @property
    def reachable(self) -> bool:
        return math.isfinite(self.cost)

    @property
    def hops(self) -> int:
        return 0 if self.chain is None else len(self.chain)


class DTGraph:
    """Data-layout transformation graph over a set of layouts.

    Parameters
    ----------
    layouts:
        The layout nodes.  Layouts referenced by transforms but not listed
        here are added automatically.
    transforms:
        The direct conversion routines (directed edges).
    """

    def __init__(
        self, layouts: Iterable[Layout], transforms: Iterable[LayoutTransform]
    ) -> None:
        self._layouts: Dict[str, Layout] = {}
        for layout in layouts:
            self._layouts[layout.name] = layout
        self._transforms: List[LayoutTransform] = list(transforms)
        for transform in self._transforms:
            self._layouts.setdefault(transform.source.name, transform.source)
            self._layouts.setdefault(transform.target.name, transform.target)
        self._edges: Dict[Tuple[str, str], LayoutTransform] = {}
        for transform in self._transforms:
            key = (transform.source.name, transform.target.name)
            if key in self._edges:
                raise ValueError(f"duplicate direct transform for {key}")
            self._edges[key] = transform
        index = {name: i for i, name in enumerate(self._layouts)}
        #: Layout indices of every edge's endpoints, in edge order.
        self._edge_sources = np.array(
            [index[src] for src, _ in self._edges], dtype=np.intp
        )
        self._edge_targets = np.array(
            [index[dst] for _, dst in self._edges], dtype=np.intp
        )

    # -- basic structure -----------------------------------------------------

    @property
    def layouts(self) -> List[Layout]:
        """The layout nodes of the graph."""
        return list(self._layouts.values())

    @property
    def layout_names(self) -> List[str]:
        return list(self._layouts.keys())

    @property
    def transforms(self) -> List[LayoutTransform]:
        """The direct transform edges of the graph."""
        return list(self._transforms)

    def direct_transform(self, source: Layout, target: Layout) -> Optional[LayoutTransform]:
        """The direct routine from ``source`` to ``target``, if one exists."""
        return self._edges.get((source.name, target.name))

    def successors(self, layout: Layout) -> List[Layout]:
        """Layouts directly reachable from ``layout`` by one transform."""
        return [
            self._layouts[dst]
            for (src, dst) in self._edges
            if src == layout.name
        ]

    # -- reachability --------------------------------------------------------

    def transitive_closure(self) -> Set[Tuple[str, str]]:
        """All ordered pairs ``(a, b)`` such that layout ``b`` is reachable from ``a``.

        Every layout is trivially reachable from itself.  These are the finite
        entries of the shortest-path distances under any finite edge cost.
        """
        dist, _ = self._floyd_warshall([(0, 0, 0)], lambda transform, shape: 0.0)
        names = self.layout_names
        sources, targets = np.nonzero(np.isfinite(dist[0]))
        return {(names[i], names[j]) for i, j in zip(sources.tolist(), targets.tolist())}

    def is_reachable(self, source: Layout, target: Layout) -> bool:
        """Whether ``target`` can be reached from ``source`` by some chain."""
        return (source.name, target.name) in self.transitive_closure()

    # -- all-pairs shortest paths ---------------------------------------------

    def shortest_paths_by_shape(
        self,
        shapes: Iterable[Shape],
        cost_fn: TransformCostFn = element_traffic_cost,
    ) -> Dict[Shape, Dict[Tuple[str, str], DTPath]]:
        """Cheapest conversion chains between every ordered pair of layouts,
        for every tensor shape at once.

        The result maps each shape (in first-seen order) to a dict from
        ``(source name, target name)`` to a :class:`DTPath`; unreachable
        pairs get infinite cost.  ``cost_fn`` is called shape by shape, edge
        by edge in the graph's edge order.
        """
        shapes = list(dict.fromkeys(shapes))
        dist, successor = self._floyd_warshall(shapes, cost_fn)
        names = self.layout_names
        layouts = self.layouts
        # Every per-shape table lists the pairs row by row: these columns are
        # shared, and each shape contributes its costs and chains in the
        # same flattened order.
        pairs = [(a, b) for a in names for b in names]
        sources = [a for a in layouts for _ in layouts]
        targets = layouts * len(layouts)
        costs = dist.reshape(len(shapes), -1).tolist()
        chains_by_matrix: Dict[bytes, List[Optional[TransformChain]]] = {}
        result: Dict[Shape, Dict[Tuple[str, str], DTPath]] = {}
        for s, shape in enumerate(shapes):
            key = successor[s].tobytes()
            chains = chains_by_matrix.get(key)
            if chains is None:
                chains = chains_by_matrix[key] = self._reconstruct_chains(
                    successor[s].tolist()
                )
            result[shape] = dict(
                zip(pairs, starmap(DTPath, zip(sources, targets, costs[s], chains)))
            )
        return result

    def all_pairs_shortest_paths(
        self,
        shape: Shape,
        cost_fn: TransformCostFn = element_traffic_cost,
    ) -> Dict[Tuple[str, str], DTPath]:
        """Cheapest conversion chains between every ordered pair of layouts at
        one tensor ``shape`` (the single-shape case of
        :meth:`shortest_paths_by_shape`)."""
        return self.shortest_paths_by_shape([shape], cost_fn)[shape]

    def shortest_path(
        self,
        source: Layout,
        target: Layout,
        shape: Shape,
        cost_fn: TransformCostFn = element_traffic_cost,
    ) -> DTPath:
        """Cheapest conversion from ``source`` to ``target`` for ``shape``."""
        return self.all_pairs_shortest_paths(shape, cost_fn)[(source.name, target.name)]

    def _floyd_warshall(
        self, shapes: Sequence[Shape], cost_fn: TransformCostFn
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Distances and successors for every shape: two ``(S, L, L)`` arrays.

        ``successor[s, i, j]`` is the layout after ``i`` on the cheapest path
        to ``j`` (``-1`` when ``j`` is unreachable, where the distance is
        ``inf``).  The relaxation runs through intermediate layouts in index
        order and replaces a distance only when strictly cheaper.  Row and
        column ``k`` cannot change while relaxing through ``k`` (the diagonal
        is zero and costs are non-negative), so relaxing all pairs at once
        gives the same floats and the same ties as the scalar triple loop.
        """
        n = len(self._layouts)
        edge_costs = np.empty((len(shapes), len(self._edges)))
        for s, shape in enumerate(shapes):
            for e, transform in enumerate(self._edges.values()):
                cost = float(cost_fn(transform, shape))
                if cost < 0:
                    raise ValueError(f"negative transform cost for {transform.name}")
                edge_costs[s, e] = cost
        dist = np.full((len(shapes), n, n), math.inf)
        successor = np.full((len(shapes), n, n), -1, dtype=np.intp)
        diagonal = np.arange(n)
        dist[:, diagonal, diagonal] = 0.0
        successor[:, diagonal, diagonal] = diagonal
        sources, targets = self._edge_sources, self._edge_targets
        direct = edge_costs < dist[:, sources, targets]
        dist[:, sources, targets] = np.where(direct, edge_costs, dist[:, sources, targets])
        successor[:, sources, targets] = np.where(
            direct, targets, successor[:, sources, targets]
        )
        for k in range(n):
            through = dist[:, :, k, None] + dist[:, None, k, :]
            better = through < dist
            dist = np.where(better, through, dist)
            successor = np.where(better, successor[:, :, k, None], successor)
        return dist, successor

    def _reconstruct_chains(self, successor: List[List[int]]) -> List[Optional[TransformChain]]:
        """Every pair's chain under one successor matrix (``None`` if
        unreachable), row by row: pair ``(i, j)`` is entry ``i * L + j``."""
        names = self.layout_names
        n = len(names)
        chains: List[Optional[TransformChain]] = [None] * (n * n)
        for i in range(n):
            for j in range(n):
                if successor[i][j] < 0:
                    continue
                hops: List[LayoutTransform] = []
                current = i
                while current != j:
                    following = successor[current][j]
                    if following < 0:
                        raise RuntimeError("path reconstruction failed on a reachable pair")
                    hops.append(self._edges[(names[current], names[following])])
                    current = following
                chains[i * n + j] = TransformChain(transforms=tuple(hops))
        return chains
