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

**A solve replays its topology's schedule.**  R0, R1 or R2 go by node
degree in node-id order, and RN takes the highest-degree node; no cost value
steers which node goes next.  So a solve first takes the graph's
:class:`~repro.pbqp.schedule.Schedule`, derived from its topology alone,
then replays it over one copy of the node costs and a flat edge table
(:class:`~repro.pbqp.reductions.WorkingCosts`): :meth:`PBQPSolver._reduce`
replays a run of R0-R2 steps, the exact core search starts where the
schedule's core begins, and the RN heuristic replays the steps after it.
Every graph one :class:`~repro.core.selector.PBQPEncoding` builds shares its
topology and carries the schedule the encoding derived from the first one
(:attr:`~repro.pbqp.graph.PBQPGraph.schedule`); a hand-built graph derives
one per solve.

Instances that share a topology share a schedule, so a graph with a batch
axis (``K`` cost variants over one topology, see
:class:`~repro.pbqp.graph.PBQPGraph`) is solved in one pass: every reduction
folds all ``K`` slices at once, exact core search runs per slice, and
back-propagation decides one alternative per slice.  Each slice sees exactly
the float operations a solve of that slice alone performs (see
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
    WorkingCosts,
    apply_r0,
    apply_r1,
    apply_r2,
    apply_rn,
)
from repro.pbqp.schedule import R1, R2, RN, Schedule, derive_schedule
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
        schedule = graph.schedule or derive_schedule(graph)
        work = WorkingCosts(graph, schedule.slot_count)
        steps, links = schedule.steps.tolist(), schedule.links.tolist()
        stack: List[ReductionRecord] = []
        optimal = True
        batch = graph.batch
        infeasible = [False] * (batch or 1)

        self._reduce(work, steps[: schedule.core_start], links, stack, stats)

        assignment: Mapping[int, Choice] = {}
        if schedule.core_nodes.size:
            stats.core_nodes = schedule.core_nodes.size
            if schedule.core_size <= self.exact_core_limit:
                if batch is None:
                    assignment = self._solve_core_exact(work, schedule, stats)
                else:
                    assignment, infeasible = self._solve_core_slices(work, schedule, batch, stats)
            else:
                optimal = False
                _log_rn_fallback(stats.core_nodes, schedule.core_size, self.exact_core_limit)
                self._solve_core_heuristic(work, steps[schedule.core_start :], links, stack, stats)

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

    # -- schedule replay ------------------------------------------------------------

    def _reduce(
        self,
        work: WorkingCosts,
        steps: List[List[int]],
        links: List[List[int]],
        stack: List[ReductionRecord],
        stats: SolverStats,
    ) -> None:
        """Replay a run of R0/R1/R2 steps (rows of :attr:`Schedule.steps`)."""
        for kind, node, first, _, fold, merges in steps:
            if kind == R2:
                (neighbor_u, slot_u), (neighbor_v, slot_v) = links[first : first + 2]
                stack.append(
                    apply_r2(
                        work, node, neighbor_u, neighbor_v, slot_u, slot_v, fold, bool(merges)
                    )
                )
                stats.r2_count += 1
            elif kind == R1:
                stack.append(apply_r1(work, node, *links[first]))
                stats.r1_count += 1
            else:
                stack.append(apply_r0(work, node))
                stats.r0_count += 1

    def _solve_core_heuristic(
        self,
        work: WorkingCosts,
        steps: List[List[int]],
        links: List[List[int]],
        stack: List[ReductionRecord],
        stats: SolverStats,
    ) -> None:
        """Replay the core's steps: each RN step, then the R0-R2 steps it unlocks."""
        starts = [index for index, step in enumerate(steps) if step[0] == RN]
        for begin, end in zip(starts, starts[1:] + [len(steps)]):
            _, node, first, stop, _, _ = steps[begin]
            neighbors, slots = zip(*links[first:stop])
            stack.append(apply_rn(work, node, neighbors, slots))
            stats.rn_count += 1
            self._reduce(work, steps[begin + 1 : end], links, stack, stats)

    # -- exact core search ----------------------------------------------------------

    def _solve_core_slices(
        self, work: WorkingCosts, schedule: Schedule, batch: int, stats: SolverStats
    ) -> Tuple[Dict[int, np.ndarray], List[bool]]:
        """Exact core search on every slice of a batched core.

        Returns one index per slice for every core node, and which slices are
        infeasible (their indices are placeholders).
        """
        assignment = {nid: np.zeros(batch, dtype=np.intp) for nid in schedule.core_nodes.tolist()}
        infeasible = [False] * batch
        for k in range(batch):
            try:
                chosen = self._solve_core_exact(work, schedule, stats, k)
            except InfeasibleProblemError:
                infeasible[k] = True
                continue
            for nid, index in chosen.items():
                assignment[nid][k] = index
        return assignment, infeasible

    def _solve_core_exact(
        self, work: WorkingCosts, schedule: Schedule, stats: SolverStats, k: Optional[int] = None
    ) -> Dict[int, int]:
        """Depth-first branch-and-bound over the schedule's irreducible core
        (its slice ``k`` in a batched solve).

        Nodes are ordered by decreasing degree (ties in id order) so that
        edge costs become concrete early and the bound is tight.  The lower
        bound for the remaining nodes is the sum of their minimum node costs
        plus, for every edge with at least one undecided endpoint, the
        minimum compatible entry of its cost matrix.  Raises
        :class:`InfeasibleProblemError` when no assignment of the core has a
        finite cost.
        """
        def take(array: np.ndarray) -> np.ndarray:
            return array if k is None else array[k]

        nodes = schedule.core_nodes.tolist()
        costs = {nid: take(work.costs[nid]) for nid in nodes}
        edges = [(u, v, take(work.matrices[slot])) for slot, u, v in schedule.core_edges.tolist()]
        degree = dict.fromkeys(nodes, 0)
        for u, v, _ in edges:
            degree[u] += 1
            degree[v] += 1
        node_order = sorted(nodes, key=degree.__getitem__, reverse=True)

        best_cost = math.inf
        best_assignment: Dict[int, int] = {}
        current: Dict[int, int] = {}

        # Precompute per-node minimum costs for bounding.
        node_min = {nid: float(np.min(costs[nid])) for nid in nodes}

        def lower_bound(partial_cost: float, depth: int) -> float:
            bound = partial_cost
            undecided = node_order[depth:]
            for nid in undecided:
                bound += node_min[nid]
            for u, v, matrix in edges:
                u_decided = u in current
                v_decided = v in current
                if u_decided and v_decided:
                    continue
                if u_decided:
                    bound += float(np.min(matrix[current[u], :]))
                elif v_decided:
                    bound += float(np.min(matrix[:, current[v]]))
                else:
                    bound += float(np.min(matrix))
            return bound

        def partial_cost() -> float:
            total = 0.0
            for nid, idx in current.items():
                total += float(costs[nid][idx])
            for u, v, matrix in edges:
                if u in current and v in current:
                    total += float(matrix[current[u], current[v]])
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
            # Order the alternatives by their node cost so good solutions are
            # found early and pruning kicks in sooner.
            order = np.argsort(costs[node_id])
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
