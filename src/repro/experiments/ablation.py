"""Ablations of two design choices of the paper's selection pipeline.

Two ablations are provided:

* :func:`dt_cost_ablation` — how much modelling data-layout transformation
  costs *during* selection matters.  It compares the PBQP selection against
  the "greedy ignoring DT costs" strategy (pick the per-layer fastest
  primitive, pay conversions afterwards) and against the canonical-layout
  Local Optimal strategy while scaling the cost of layout transformations.
  This quantifies section 5.8's observation that post-hoc legalization can
  erase (or invert) the benefit of faster primitives.
* :func:`solver_mode_ablation` — exact branch-and-bound core search versus the
  RN heuristic, measuring solution quality and solve time on the real
  selection instances (the paper's solver proves optimality; the ablation
  shows what the heuristic would give up).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.selector import PBQPSelector
from repro.cost.analytical import AnalyticalCostModel
from repro.cost.platform import PLATFORMS, Platform
from repro.cost.provider import CostModelProvider
from repro.graph.scenario import ConvScenario
from repro.layouts.transforms import LayoutTransform
from repro.pbqp.solver import PBQPSolver
from repro.primitives.base import ConvPrimitive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session


class ScaledTransformCostModel:
    """Wrap a cost model, scaling only the layout-transformation times.

    Primitive pricing and conversion energy are the inner model's.  The
    wrapper has no ``platform``, so its tables are not platform-gated.
    """

    def __init__(self, inner, scale: float) -> None:
        if scale < 0:
            raise ValueError("scale must be non-negative")
        self.inner = inner
        self.scale = scale

    def price_layer(
        self,
        primitives: Sequence[ConvPrimitive],
        scenario: ConvScenario,
        threads: int = 1,
    ) -> List[Tuple[float, float, float, float]]:
        return self.inner.price_layer(primitives, scenario, threads)

    def transform_cost(
        self,
        transform: LayoutTransform,
        shape: Tuple[int, int, int],
        threads: int = 1,
        batch: int = 1,
        dtype: str = "fp32",
    ) -> float:
        return self.scale * self.inner.transform_cost(
            transform, shape, threads=threads, batch=batch, dtype=dtype
        )

    def transform_energy(
        self,
        transform: LayoutTransform,
        shape: Tuple[int, int, int],
        batch: int = 1,
        dtype: str = "fp32",
    ) -> float:
        return self.inner.transform_energy(transform, shape, batch=batch, dtype=dtype)


@dataclass
class DTCostAblationPoint:
    """Strategy costs for one DT-cost scale factor."""

    scale: float
    pbqp_ms: float
    greedy_ignore_dt_ms: float
    local_optimal_ms: float

    @property
    def pbqp_advantage_over_greedy(self) -> float:
        return self.greedy_ignore_dt_ms / self.pbqp_ms

    @property
    def pbqp_advantage_over_local(self) -> float:
        return self.local_optimal_ms / self.pbqp_ms


def dt_cost_ablation(
    model_name: str = "googlenet",
    platform: Optional[Platform] = None,
    scales: Tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 4.0),
    threads: int = 1,
) -> List[DTCostAblationPoint]:
    """Sweep the cost of layout transformations and compare selection strategies.

    At scale 0 conversions are free, so greedy per-layer selection matches
    PBQP; as conversions get more expensive the gap widens (and the
    canonical-layout strategy becomes relatively more attractive, though never
    better than PBQP, which subsumes it).
    """
    from repro.api import Session

    platform = platform or PLATFORMS["intel-haswell"]
    base_model = AnalyticalCostModel(platform)
    points: List[DTCostAblationPoint] = []
    for scale in scales:
        cost_model = ScaledTransformCostModel(base_model, scale)
        # Each scale gets its own session: the scaled model is injected as a
        # cost provider, so the selection pipeline is exactly the public one.
        # It has no platform, so its plans carry the provider's name, which
        # the verifier does not know.
        session = Session(
            provider=CostModelProvider(cost_model, name=f"scaled-dt[{scale}]")
        )

        def total_ms(strategy: str) -> float:
            return session.plan(
                model_name, None, strategy, threads, verify=False
            ).total_ms

        points.append(
            DTCostAblationPoint(
                scale=scale,
                pbqp_ms=total_ms("pbqp"),
                greedy_ignore_dt_ms=total_ms("greedy_ignore_dt"),
                local_optimal_ms=total_ms("local_optimal"),
            )
        )
    return points


@dataclass
class SolverModeResult:
    """Exact versus heuristic solving on one network's selection instance."""

    network: str
    exact_cost: float
    exact_seconds: float
    exact_provably_optimal: bool
    heuristic_cost: float
    heuristic_seconds: float

    @property
    def heuristic_gap(self) -> float:
        """Relative cost increase of the heuristic solution (0.0 = matches exact)."""
        if self.exact_cost == 0:
            return 0.0
        return (self.heuristic_cost - self.exact_cost) / self.exact_cost


def solver_mode_ablation(
    networks: Optional[List[str]] = None,
    platform: Optional[Platform] = None,
    threads: int = 1,
) -> List[SolverModeResult]:
    """Compare the exact branch-and-bound core search against the RN heuristic."""
    from repro.api import Session

    networks = networks or ["alexnet", "googlenet"]
    platform = platform or PLATFORMS["intel-haswell"]
    session = Session()
    results: List[SolverModeResult] = []
    for model_name in networks:
        context = session.context_for(model_name, platform, threads)
        exact_selector = PBQPSelector(PBQPSolver())
        exact_plan = exact_selector.select(context)
        exact_stats = exact_selector.solver.last_stats

        # Forcing an impossibly small exact-core limit makes the solver fall
        # back to the RN heuristic for any non-trivial irreducible core.
        heuristic_selector = PBQPSelector(PBQPSolver(exact_core_limit=1))
        heuristic_plan = heuristic_selector.select(context)
        heuristic_stats = heuristic_selector.solver.last_stats

        results.append(
            SolverModeResult(
                network=model_name,
                exact_cost=exact_plan.total_cost,
                exact_seconds=exact_stats.solve_seconds if exact_stats else 0.0,
                exact_provably_optimal=bool(exact_plan.metadata["pbqp_optimal"]),
                heuristic_cost=heuristic_plan.total_cost,
                heuristic_seconds=heuristic_stats.solve_seconds if heuristic_stats else 0.0,
            )
        )
    return results
