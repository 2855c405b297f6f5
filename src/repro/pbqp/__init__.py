"""Partitioned Boolean Quadratic Programming (PBQP).

PBQP is the assignment problem the paper reduces primitive selection to
(section 3.3): each graph node has a vector of alternative costs, each edge a
matrix of pairwise costs indexed by the alternatives chosen at its two
endpoints, and the goal is the assignment minimizing the sum of selected node
costs plus selected edge costs.

This package provides a from-scratch solver in the lineage of the solver the
paper uses (Scholz & Eckstein / Hames & Scholz):

* :class:`~repro.pbqp.graph.PBQPGraph` — the problem representation;
* reductions R0 (isolated nodes), R1 (degree-1) and R2 (degree-2), which are
  optimality preserving;
* an RN heuristic for irreducible nodes, and a branch-and-bound mode that
  restores optimality and reports whether the returned solution is provably
  optimal (the paper notes the solver proved optimality on every network);
* a brute-force oracle used by the test suite to validate the solver on
  random instances.
"""

from repro.pbqp.graph import PBQPGraph, PBQPNode, PBQPEdge
from repro.pbqp.solution import PBQPSolution
from repro.pbqp.solver import InfeasibleProblemError, PBQPSolver, SolverStats
from repro.pbqp.bruteforce import brute_force_solve

__all__ = [
    "PBQPGraph",
    "PBQPNode",
    "PBQPEdge",
    "PBQPSolution",
    "PBQPSolver",
    "InfeasibleProblemError",
    "SolverStats",
    "brute_force_solve",
]
