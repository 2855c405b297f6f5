"""Optimization overhead (section 5.4 of the paper).

"Solving the PBQP optimization query took less than one second for each of
the networks we experimented with ...  In each case, the solver reported that
the optimal solution was found."

:func:`solver_overhead_report` measures, for every network of the evaluation,
the size of the PBQP instance, the wall-clock solve time and whether the
solution is provably optimal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

from repro.core.selector import PBQPSelector
from repro.cost.platform import PLATFORMS, Platform

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session


@dataclass
class SolverOverheadEntry:
    """Solver statistics for one network."""

    network: str
    pbqp_nodes: int
    pbqp_edges: int
    solve_seconds: float
    total_seconds: float
    optimal: bool


def solver_overhead_report(
    networks: Optional[List[str]] = None,
    platform: Optional[Platform] = None,
    threads: int = 1,
    session: Optional["Session"] = None,
) -> List[SolverOverheadEntry]:
    """Measure PBQP construction + solve time for each evaluation network."""
    if session is None:
        from repro.api import Session

        session = Session()
    networks = networks or ["alexnet", "vgg-b", "vgg-c", "vgg-e", "googlenet"]
    platform = platform or PLATFORMS["intel-haswell"]
    entries: List[SolverOverheadEntry] = []
    selector = PBQPSelector()
    for model_name in networks:
        context = session.context_for(model_name, platform, threads)
        start = time.perf_counter()
        plan = selector.select(context)
        total = time.perf_counter() - start
        entries.append(
            SolverOverheadEntry(
                network=model_name,
                pbqp_nodes=int(plan.metadata["pbqp_nodes"]),
                pbqp_edges=int(plan.metadata["pbqp_edges"]),
                solve_seconds=float(plan.metadata["solver_seconds"]),
                total_seconds=total,
                optimal=bool(plan.metadata["pbqp_optimal"]),
            )
        )
    return entries


def format_overhead_report(entries: List[SolverOverheadEntry]) -> str:
    """Render the overhead report as a table."""
    header = f"{'network':<12}{'nodes':>8}{'edges':>8}{'solve (s)':>12}{'total (s)':>12}{'optimal':>10}"
    lines = ["PBQP optimization overhead (section 5.4)", header, "-" * len(header)]
    for entry in entries:
        lines.append(
            f"{entry.network:<12}{entry.pbqp_nodes:>8}{entry.pbqp_edges:>8}"
            f"{entry.solve_seconds:>12.4f}{entry.total_seconds:>12.3f}"
            f"{str(entry.optimal):>10}"
        )
    return "\n".join(lines)
