"""The PBQP solver: reductions, branch-and-bound on irreducible cores, back-propagation.

The solving strategy mirrors Hames & Scholz's "nearly optimal register
allocation with PBQP" solver, which the paper uses off the shelf:

1. apply the optimality-preserving reductions R0/R1/R2 exhaustively;
2. if the graph is empty, back-propagate to obtain a provably optimal
   solution;
3. otherwise an *irreducible core* (every remaining node has degree >= 3)
   remains.  If the core is small enough, solve it exactly by depth-first
   branch-and-bound (the solution stays provably optimal); if it is too
   large, fall back to the RN heuristic interleaved with further reductions,
   mark the solution as not provably optimal, and log a warning (once per
   process) on the ``repro.pbqp.solver`` logger.

The paper reports that the solver found (and proved) the optimal solution for
every network in under one second; on the networks in this reproduction the
irreducible core is empty or tiny, so the same holds here.

**The schedule depends only on topology.**  :meth:`PBQPSolver._reduce` picks
R0, R1 or R2 from node degrees in node-id order, and RN picks the
highest-degree node; no cost value steers which node goes next.  Instances
that share a topology and differ only in their costs therefore share one
reduction schedule.  A graph with a batch axis (``K`` cost variants over one
topology, see :class:`~repro.pbqp.graph.PBQPGraph`) is solved in one pass:
every reduction folds all ``K`` slices at once, exact core search runs per
slice, and back-propagation decides one alternative per slice.  Each slice
sees exactly the float operations a solve of that slice alone performs (see
:mod:`repro.pbqp.reductions`), so its assignment and cost are identical.  The
multi-objective frontier uses this to solve every workspace cap and
scalarisation of a context in one batched solve.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.pbqp.graph import PBQPGraph
from repro.pbqp.reductions import (
    Choice,
    ReductionRecord,
    apply_r0,
    apply_r1,
    apply_r2,
    apply_rn,
)
from repro.pbqp.solution import PBQPSolution

logger = logging.getLogger(__name__)

# Process-wide solve accounting.  The planning service's /v1/metrics surfaces
# this to prove its warm path performs *zero* solves (a warm daemon serving
# cached plans holds the counter flat); a plain module global with a lock is
# enough because solves are counted, never reset, and read rarely.
_SOLVE_COUNT_LOCK = threading.Lock()
_SOLVE_COUNT = 0


def solve_count() -> int:
    """Total number of PBQP solves performed by this process (thread-safe)."""
    with _SOLVE_COUNT_LOCK:
        return _SOLVE_COUNT


def _count_solve() -> None:
    global _SOLVE_COUNT
    with _SOLVE_COUNT_LOCK:
        _SOLVE_COUNT += 1


# The RN fallback is a degraded path: it is logged once per process (the flag
# shares the solve counter's lock), so a long-running service reports it
# without flooding its log.
_RN_FALLBACK_LOGGED = False


def _log_rn_fallback(core_nodes: int, core_size: int, limit: int) -> None:
    global _RN_FALLBACK_LOGGED
    with _SOLVE_COUNT_LOCK:
        if _RN_FALLBACK_LOGGED:
            return
        _RN_FALLBACK_LOGGED = True
    logger.warning(
        "PBQP irreducible core of %d nodes has %d assignments, above exact_core_limit=%d; "
        "falling back to the RN heuristic (solution not provably optimal)",
        core_nodes,
        core_size,
        limit,
    )


class InfeasibleProblemError(ValueError):
    """The PBQP instance has no finite-cost assignment.

    Raised instead of returning an arbitrary assignment when the exact path
    proves infeasibility: by the core search when every branch is pruned
    against an infinite bound, and by :meth:`PBQPSolver.solve` when the
    reductions alone leave only infinite-cost assignments.
    """


@dataclass
class SolverStats:
    """Counters describing one solver run (used by the overhead experiment)."""

    r0_count: int = 0
    r1_count: int = 0
    r2_count: int = 0
    rn_count: int = 0
    core_nodes: int = 0
    core_assignments_explored: int = 0
    solve_seconds: float = 0.0

    def total_reductions(self) -> int:
        return self.r0_count + self.r1_count + self.r2_count + self.rn_count


class PBQPSolver:
    """Reduction-based PBQP solver with an exact branch-and-bound core search.

    Parameters
    ----------
    exact_core_limit:
        Maximum size (number of assignment combinations) of the irreducible
        core that will be solved exactly; larger cores fall back to the RN
        heuristic.  The default comfortably covers every DNN selection
        instance in the reproduction.
    """

    def __init__(self, exact_core_limit: int = 2_000_000) -> None:
        if exact_core_limit < 1:
            raise ValueError("exact_core_limit must be positive")
        self.exact_core_limit = exact_core_limit
        self.last_stats: Optional[SolverStats] = None

    # -- public API -------------------------------------------------------------

    def solve(
        self, graph: PBQPGraph
    ) -> Union[PBQPSolution, List[Optional[PBQPSolution]]]:
        """Solve a PBQP instance; the input graph is not modified.

        Raises :class:`InfeasibleProblemError` when the instance is solved
        exactly (no RN step) and has no finite-cost assignment.

        A batched graph returns one entry per slice instead, each equal to
        what solving that slice alone returns; an infeasible slice is
        ``None`` rather than an exception, and leaves the others unaffected.
        """
        _count_solve()
        stats = SolverStats()
        start = time.perf_counter()
        work = graph.working_copy()
        stack: List[ReductionRecord] = []
        optimal = True
        batch = graph.batch
        infeasible = [False] * (batch or 1)

        self._reduce(work, stack, stats)

        assignment: Mapping[int, Choice] = {}
        if work.num_nodes > 0:
            stats.core_nodes = work.num_nodes
            core_size = math.prod(node.degree_of_freedom for node in work.nodes())
            if core_size <= self.exact_core_limit:
                if batch is None:
                    assignment = self._solve_core_exact(work, stats)
                else:
                    assignment, infeasible = self._solve_core_slices(work, batch, stats)
            else:
                optimal = False
                _log_rn_fallback(work.num_nodes, core_size, self.exact_core_limit)
                self._solve_core_heuristic(work, stack, stats)

        full_assignment = self._back_propagate(assignment, stack)
        if batch is not None:
            ids = list(full_assignment)
            table = np.array([full_assignment[nid] for nid in ids]).reshape(len(ids), batch)
            costs = graph.batch_solution_cost(dict(zip(ids, table)))
            stats.solve_seconds = time.perf_counter() - start
            self.last_stats = stats
            return [
                None
                if infeasible[k] or (optimal and costs[k] == math.inf)
                else PBQPSolution(
                    assignment=dict(zip(ids, table[:, k].tolist())),
                    cost=float(costs[k]),
                    optimal=optimal,
                )
                for k in range(batch)
            ]
        plain = {nid: int(index) for nid, index in full_assignment.items()}
        cost = graph.solution_cost(plain)
        stats.solve_seconds = time.perf_counter() - start
        self.last_stats = stats
        if optimal and cost == math.inf:
            # R0/R1/R2 and the exact core search are optimality-preserving, so
            # an infinite optimum proves no finite-cost assignment exists.
            raise InfeasibleProblemError(
                f"the {graph.num_nodes}-node instance has no finite-cost assignment"
            )
        return PBQPSolution(assignment=plain, cost=cost, optimal=optimal)

    # -- reduction loop -----------------------------------------------------------

    def _reduce(self, work: PBQPGraph, stack: List[ReductionRecord], stats: SolverStats) -> None:
        """Apply R0/R1/R2 until no node of degree <= 2 remains."""
        progress = True
        while progress:
            progress = False
            for node_id in work.node_ids:
                if not work.has_node(node_id):
                    continue
                degree = work.degree(node_id)
                if degree == 0:
                    stack.append(apply_r0(work, node_id))
                    stats.r0_count += 1
                    progress = True
                elif degree == 1:
                    stack.append(apply_r1(work, node_id))
                    stats.r1_count += 1
                    progress = True
                elif degree == 2:
                    stack.append(apply_r2(work, node_id))
                    stats.r2_count += 1
                    progress = True

    def _solve_core_heuristic(
        self, work: PBQPGraph, stack: List[ReductionRecord], stats: SolverStats
    ) -> None:
        """Reduce the remaining core with RN steps interleaved with R0-R2."""
        while work.num_nodes > 0:
            node_id = max(work.node_ids, key=work.degree)
            stack.append(apply_rn(work, node_id))
            stats.rn_count += 1
            self._reduce(work, stack, stats)

    # -- exact core search ----------------------------------------------------------

    def _solve_core_slices(
        self, core: PBQPGraph, batch: int, stats: SolverStats
    ) -> Tuple[Dict[int, np.ndarray], List[bool]]:
        """Exact core search on every slice of a batched core.

        Returns one index per slice for every core node, and which slices are
        infeasible (their indices are placeholders).
        """
        assignment = {nid: np.zeros(batch, dtype=np.intp) for nid in core.node_ids}
        infeasible = [False] * batch
        for k in range(batch):
            try:
                chosen = self._solve_core_exact(core.slice(k), stats)
            except InfeasibleProblemError:
                infeasible[k] = True
                continue
            for nid, index in chosen.items():
                assignment[nid][k] = index
        return assignment, infeasible

    def _solve_core_exact(self, core: PBQPGraph, stats: SolverStats) -> Dict[int, int]:
        """Depth-first branch-and-bound over the irreducible core.

        Nodes are ordered by decreasing degree so that edge costs become
        concrete early and the bound is tight.  The lower bound for the
        remaining nodes is the sum of their minimum node costs plus, for every
        edge with at least one undecided endpoint, the minimum compatible
        entry of its cost matrix.  Raises :class:`InfeasibleProblemError` when
        no assignment of the core has a finite cost.
        """
        node_order = sorted(core.node_ids, key=core.degree, reverse=True)
        edges = core.edges()

        best_cost = math.inf
        best_assignment: Dict[int, int] = {}
        current: Dict[int, int] = {}

        # Precompute per-node minimum costs for bounding.
        node_min = {nid: float(np.min(core.node(nid).costs)) for nid in core.node_ids}

        def lower_bound(partial_cost: float, depth: int) -> float:
            bound = partial_cost
            undecided = node_order[depth:]
            for nid in undecided:
                bound += node_min[nid]
            for edge in edges:
                u_decided = edge.u in current
                v_decided = edge.v in current
                if u_decided and v_decided:
                    continue
                if u_decided:
                    bound += float(np.min(edge.matrix[current[edge.u], :]))
                elif v_decided:
                    bound += float(np.min(edge.matrix[:, current[edge.v]]))
                else:
                    bound += float(np.min(edge.matrix))
            return bound

        def partial_cost() -> float:
            total = 0.0
            for nid, idx in current.items():
                total += float(core.node(nid).costs[idx])
            for edge in edges:
                if edge.u in current and edge.v in current:
                    total += float(edge.matrix[current[edge.u], current[edge.v]])
            return total

        def search(depth: int) -> None:
            nonlocal best_cost, best_assignment
            if depth == len(node_order):
                cost = partial_cost()
                stats.core_assignments_explored += 1
                if cost < best_cost:
                    best_cost = cost
                    best_assignment = dict(current)
                return
            node_id = node_order[depth]
            node = core.node(node_id)
            # Order the alternatives by their node cost so good solutions are
            # found early and pruning kicks in sooner.
            order = np.argsort(node.costs)
            for index in order:
                current[node_id] = int(index)
                stats.core_assignments_explored += 1
                if lower_bound(partial_cost(), depth + 1) < best_cost:
                    search(depth + 1)
                del current[node_id]

        search(0)
        if not best_assignment and node_order:
            # Every branch was pruned against an infinite bound.
            raise InfeasibleProblemError(
                f"the {len(node_order)}-node irreducible core has no finite-cost assignment"
            )
        return best_assignment

    # -- back-propagation --------------------------------------------------------------

    @staticmethod
    def _back_propagate(
        core_assignment: Mapping[int, Choice], stack: List[ReductionRecord]
    ) -> Dict[int, Choice]:
        """Decide every reduced node in reverse reduction order."""
        assignment = dict(core_assignment)
        for record in reversed(stack):
            assignment[record.node_id] = record.back_propagate(assignment)
        return assignment
