"""E10 — Ablations of two design choices of the selection pipeline.

Two ablations:

* DT-cost awareness (section 5.8 / 6): scale the cost of layout
  transformations and compare the PBQP selection against per-layer greedy
  selection that ignores DT costs, and against the canonical-layout strategy.
  When conversions are free the greedy matches PBQP; as they get more
  expensive the gap widens, quantifying why selection must model them.
* Exact versus heuristic PBQP solving: the RN heuristic's solution quality
  and time against the provably optimal branch-and-bound core search on the
  real selection instances.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments.ablation import dt_cost_ablation, solver_mode_ablation

SCALES = (0.0, 0.5, 1.0, 2.0, 4.0)


@pytest.fixture(scope="module")
def ablation_points(intel):
    return dt_cost_ablation(
        model_name="googlenet", platform=intel, scales=SCALES
    )


def test_dt_cost_ablation(benchmark, intel, ablation_points):
    benchmark.pedantic(
        lambda: dt_cost_ablation(
            model_name="alexnet", platform=intel, scales=(1.0,)
        ),
        rounds=1,
        iterations=1,
    )
    lines = ["DT-cost ablation (GoogLeNet, Intel Haswell, single-threaded)"]
    lines.append(f"{'scale':>8}{'pbqp ms':>12}{'greedy ms':>12}{'local opt ms':>14}{'pbqp/greedy':>14}")
    for point in ablation_points:
        lines.append(
            f"{point.scale:>8.1f}{point.pbqp_ms:>12.2f}{point.greedy_ignore_dt_ms:>12.2f}"
            f"{point.local_optimal_ms:>14.2f}{point.pbqp_advantage_over_greedy:>14.3f}"
        )
    emit("\n".join(lines))

    assert ablation_points[0].pbqp_advantage_over_greedy == pytest.approx(1.0, rel=1e-6)
    for point in ablation_points:
        assert point.pbqp_advantage_over_greedy >= 1.0 - 1e-9
        assert point.pbqp_advantage_over_local >= 1.0 - 1e-9
    assert (
        ablation_points[-1].pbqp_advantage_over_greedy
        > ablation_points[0].pbqp_advantage_over_greedy
    )


def test_solver_mode_ablation(benchmark, intel):
    results = benchmark.pedantic(
        lambda: solver_mode_ablation(networks=["alexnet", "googlenet"], platform=intel),
        rounds=1,
        iterations=1,
    )
    lines = ["Exact vs heuristic PBQP solving"]
    for result in results:
        lines.append(
            f"  {result.network:<12} exact {1e3 * result.exact_cost:9.2f} ms-cost in {result.exact_seconds:.4f}s"
            f" | heuristic {1e3 * result.heuristic_cost:9.2f} ms-cost in {result.heuristic_seconds:.4f}s"
            f" | gap {100 * result.heuristic_gap:.2f}%"
        )
    emit("\n".join(lines))

    for result in results:
        assert result.exact_provably_optimal
        assert result.heuristic_cost >= result.exact_cost - 1e-12
