"""The reduction schedule of a PBQP topology.

Which node the solver removes next, and by which reduction, depends only on
the graph's topology: R0, R1 or R2 go by node degree in node-id order, and RN
takes the first node of highest degree.  No cost value steers the order.  So
:func:`derive_schedule` simulates the reductions on node ids and edge slots
alone, and every solve of that topology replays the result over its own
costs (see :mod:`repro.pbqp.solver`).

Edges are named by *slot*: the graph's edges take slots ``0..E-1`` in the
graph's edge order, and each R2 fold that joins two nodes not yet adjacent
takes the next free slot.  A removed edge's slot is never reused.  The
schedule is a handful of integer arrays, so an encoding can keep it as long
as it lives.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple

import numpy as np

from repro.pbqp.graph import PBQPGraph

#: Step kinds, in the first column of :attr:`Schedule.steps`.
R0, R1, R2, RN = range(4)


class Schedule(NamedTuple):
    """The reductions one topology goes through, in order."""

    #: One row per reduction: its kind, the node it removes, where that
    #: node's rows in :attr:`links` start and stop, and for an R2 the slot
    #: its fold lands on and whether that edge existed before (1) or the
    #: fold creates it (0).  Other kinds hold -1 and 0 there.
    steps: np.ndarray
    #: ``(neighbor, slot)`` of every removed node's edges, in
    #: :meth:`~repro.pbqp.graph.PBQPGraph.neighbors` order.
    links: np.ndarray
    #: The first step after R0-R2 run out: an irreducible core begins here
    #: when steps remain, and every later step belongs to the RN heuristic.
    core_start: int
    #: The core's nodes, in id order, and its edges as ``(slot, u, v)`` rows
    #: with ``u < v``, in slot order.
    core_nodes: np.ndarray
    core_edges: np.ndarray
    #: The number of joint assignments of the core.
    core_size: int
    #: How many slots the edges take, the graph's and the folds' together.
    slot_count: int


def derive_schedule(graph: PBQPGraph) -> Schedule:
    """The schedule the solver's reductions follow on ``graph``'s topology."""
    count = graph.num_nodes
    #: Each live node's neighbors, mapped to the slot of the edge joining them.
    adjacency: List[Dict[int, int]] = [{} for _ in range(count)]
    edges = graph.edges()
    for slot, edge in enumerate(edges):
        adjacency[edge.u][edge.v] = slot
        adjacency[edge.v][edge.u] = slot
    slot_count = len(edges)
    live = list(range(count))
    steps: List[List[int]] = []
    links: List[List[int]] = []

    def remove(node: int, kind: int) -> None:
        nonlocal slot_count
        edges_of = adjacency[node]
        joined = sorted(edges_of)
        start = len(links)
        links.extend([neighbor, edges_of[neighbor]] for neighbor in joined)
        for neighbor in joined:
            del adjacency[neighbor][node]
        fold, merges = -1, 0
        if kind == R2:
            u, v = joined
            fold = adjacency[u].get(v, -1)
            if fold < 0:
                fold = adjacency[u][v] = adjacency[v][u] = slot_count
                slot_count += 1
            else:
                merges = 1
        steps.append([kind, node, start, len(links), fold, merges])

    def reduce() -> None:
        """R0/R1/R2 in passes over the live nodes in id order, as long as a
        pass removes a node.  A node goes by its degree when the pass reaches
        it, and R0, R1 and R2 are numbered by the degree they remove."""
        nonlocal live
        progress = True
        while progress:
            progress = False
            kept = []
            for node in live:
                degree = len(adjacency[node])
                if degree <= 2:
                    remove(node, degree)
                    progress = True
                else:
                    kept.append(node)
            live = kept

    reduce()
    core_start = len(steps)
    core_nodes = list(live)
    core_edges = sorted(
        (slot, u, v) for u in core_nodes for v, slot in adjacency[u].items() if u < v
    )
    core_size = math.prod(graph.node(node).degree_of_freedom for node in core_nodes)
    while live:
        node = max(live, key=lambda candidate: len(adjacency[candidate]))
        live.remove(node)
        remove(node, RN)
        reduce()

    return Schedule(
        steps=np.array(steps, dtype=np.int32).reshape(-1, 6),
        links=np.array(links, dtype=np.int32).reshape(-1, 2),
        core_start=core_start,
        core_nodes=np.array(core_nodes, dtype=np.int32),
        core_edges=np.array(core_edges, dtype=np.int32).reshape(-1, 3),
        core_size=core_size,
        slot_count=slot_count,
    )
