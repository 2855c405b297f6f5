"""The multi-objective layer: cost vectors, Pareto sorting and frontiers.

Covers the three layers of :mod:`repro.multiobj` plus the issue's acceptance
criteria: the frontier's min-time point is exactly the scalar PBQP plan, the
serialized frontier is byte-identical across runs under a fixed seed, and a
tightened peak-workspace budget flips convolution layers away from the
scratch-hungry families on multiple platforms.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core.selector import PBQPSelector, SelectionContext
from repro.multiobj.frontier import (
    FRONTIER_FORMAT,
    Frontier,
    build_frontier,
    solve_under_workspace_cap,
    workspace_levels,
)
from repro.multiobj.pareto import (
    _nsga2_sort,
    _pareto_front,
    knee_index,
    lexicographic_index,
    min_time_under_index,
)
from repro.multiobj.vector import CostVector


class TestCostVector:
    def test_combine_adds_times_and_energies_but_maxes_workspaces(self):
        a = CostVector(time_ms=2.0, peak_workspace_bytes=100.0, energy_proxy_j=0.5)
        b = CostVector(time_ms=3.0, peak_workspace_bytes=40.0, energy_proxy_j=0.25)
        combined = a.combine(b)
        assert combined.time_ms == pytest.approx(5.0)
        assert combined.peak_workspace_bytes == pytest.approx(100.0)
        assert combined.energy_proxy_j == pytest.approx(0.75)

    def test_total_is_sequential_composition(self):
        vectors = [
            CostVector(1.0, 10.0, 0.1, accuracy_proxy=1e-3),
            CostVector(2.0, 30.0, 0.2),
            CostVector(3.0, 20.0, 0.3, accuracy_proxy=2e-3),
        ]
        total = CostVector.total(vectors)
        # Times, energies and accuracy losses add; peak workspace is a max.
        assert total.as_tuple() == pytest.approx((6.0, 30.0, 0.6, 3e-3))

    def test_dominance(self):
        better = CostVector(1.0, 10.0, 0.1)
        worse = CostVector(2.0, 10.0, 0.1)
        incomparable = CostVector(0.5, 20.0, 0.1)
        assert better.dominates(worse)
        assert not worse.dominates(better)
        assert not better.dominates(incomparable)
        assert not incomparable.dominates(better)
        assert not better.dominates(better)  # equal: no strict improvement

    def test_satisfies_constraints(self):
        vector = CostVector(time_ms=5.0, peak_workspace_bytes=1024.0)
        assert vector.satisfies({})
        assert vector.satisfies({"time_ms_max": 5.0, "peak_workspace_bytes_max": 2048})
        assert not vector.satisfies({"time_ms_max": 4.9})

    def test_unknown_constraint_key_raises(self):
        with pytest.raises(ValueError, match="unknown constraint"):
            CostVector().satisfies({"workspace_max": 1.0})

    def test_dict_round_trip(self):
        vector = CostVector(1.5, 2048.0, 0.125)
        assert CostVector.from_dict(vector.to_dict()) == vector


class TestParetoSorting:
    def test_pareto_front_keeps_nondominated_in_input_order(self):
        vectors = [
            CostVector(3.0, 10.0, 0.3),  # nondominated (fast trade-off axis)
            CostVector(1.0, 30.0, 0.1),  # nondominated (fastest)
            CostVector(3.5, 10.0, 0.3),  # dominated by [0]
            CostVector(2.0, 20.0, 0.2),  # nondominated (middle)
        ]
        assert _pareto_front(vectors) == [0, 1, 3]

    def test_exact_duplicate_earliest_record_wins(self):
        vectors = [CostVector(1.0, 1.0, 1.0), CostVector(1.0, 1.0, 1.0)]
        assert _pareto_front(vectors) == [0]

    def test_nsga2_fronts_peel_successively(self):
        vectors = [
            CostVector(1.0, 10.0, 0.1),
            CostVector(2.0, 20.0, 0.2),  # dominated by [0]
            CostVector(3.0, 30.0, 0.3),  # dominated by [0] and [1]
        ]
        assert _nsga2_sort(vectors) == [[0], [1], [2]]

    def test_decision_helpers_are_seed_deterministic(self):
        # Two identical vectors: every tie-break must be a seeded draw.
        vectors = [CostVector(1.0, 1.0, 1.0), CostVector(1.0, 1.0, 1.0)]
        for seed in (0, 1, 7, 1234):
            assert knee_index(vectors, seed=seed) == knee_index(vectors, seed=seed)
            assert lexicographic_index(vectors, seed=seed) == lexicographic_index(
                vectors, seed=seed
            )
            assert min_time_under_index(vectors, seed=seed) == min_time_under_index(
                vectors, seed=seed
            )

    def test_lexicographic_order_matters(self):
        fast_fat = CostVector(1.0, 100.0, 0.1)
        slow_slim = CostVector(2.0, 10.0, 0.1)
        vectors = [fast_fat, slow_slim]
        assert lexicographic_index(vectors, order=("time_ms",)) == 0
        assert lexicographic_index(vectors, order=("peak_workspace_bytes",)) == 1
        with pytest.raises(ValueError, match="unknown objective"):
            lexicographic_index(vectors, order=("speed",))

    def test_min_time_under_returns_none_when_infeasible(self):
        vectors = [CostVector(1.0, 100.0, 0.1)]
        assert min_time_under_index(vectors, {"peak_workspace_bytes_max": 50}) is None


class TestFrontier:
    @pytest.fixture(scope="class")
    def context(self, tiny_network_session, library, dt_graph, intel):
        return SelectionContext.create(
            tiny_network_session, platform=intel, library=library, dt_graph=dt_graph
        )

    @pytest.fixture(scope="class")
    def frontier(self, context):
        return build_frontier(context, seed=0)

    def test_points_are_nondominated_and_time_sorted(self, frontier):
        assert len(frontier) >= 1
        vectors = [point.vector for point in frontier]
        times = [vector.time_ms for vector in vectors]
        assert times == sorted(times)
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                if i != j:
                    assert not a.dominates(b)

    def test_min_time_point_is_the_scalar_pbqp_plan(self, context, frontier):
        """Acceptance: with no constraints, min-time == the paper's plan."""
        scalar = PBQPSelector().select(context)
        best = frontier.min_time()
        assert best.vector.time_ms == pytest.approx(scalar.total_ms)
        assert best.plan.conv_selections() == scalar.conv_selections()
        for name, decision in best.plan.layer_decisions.items():
            assert (
                decision.output_layout.name
                == scalar.layer_decisions[name].output_layout.name
            )

    def test_deterministic_and_byte_identical_serialization(self, context, frontier):
        """Acceptance: fixed seed => byte-identical frontier output."""
        again = build_frontier(context, seed=0)
        assert again.to_json() == frontier.to_json()

    def test_json_round_trip_is_byte_identical(self, frontier, dt_graph):
        import json

        loaded = Frontier.from_dict(json.loads(frontier.to_json()), dt_graph)
        assert loaded.to_json() == frontier.to_json()
        assert len(loaded) == len(frontier)
        for mine, theirs in zip(frontier, loaded):
            assert mine.vector == theirs.vector
            assert mine.plan.conv_selections() == theirs.plan.conv_selections()

    def test_save_and_load(self, frontier, dt_graph, tmp_path):
        path = tmp_path / "frontier.json"
        frontier.save(path)
        loaded = Frontier.load(path, dt_graph)
        assert loaded.to_json() == frontier.to_json()

    def test_from_dict_rejects_unknown_format(self, dt_graph):
        with pytest.raises(ValueError, match="unexpected frontier format"):
            Frontier.from_dict({"format": "something/else"}, dt_graph)
        assert FRONTIER_FORMAT == "repro/frontier/v1"

    def test_select_modes(self, frontier):
        knee = frontier.select("knee")
        assert knee["best"] in knee["pareto"]
        assert knee["decision"]["mode"] == "knee"

        lexi = frontier.select("lexicographic", order=("peak_workspace_bytes",))
        workspaces = [point.vector.peak_workspace_bytes for point in frontier]
        assert lexi["best"].vector.peak_workspace_bytes == min(workspaces)

        with pytest.raises(ValueError, match="unknown decision mode"):
            frontier.select("fastest")

    def test_min_time_under_falls_back_to_knee(self, frontier):
        impossible = {"time_ms_max": 0.0}
        assert frontier.min_time_under(impossible) is None
        result = frontier.select("min_time_under", constraints=impossible)
        assert result["decision"]["fallback_from"] == "min_time_under"
        assert result["best"] is frontier.knee()

    def test_build_validates_constraint_keys(self, context):
        with pytest.raises(ValueError, match="unknown constraint"):
            build_frontier(context, constraints={"scratch_max": 1.0})

    def test_workspace_levels_start_at_the_floor(self, context):
        levels = workspace_levels(context)
        assert levels == sorted(levels)
        assert levels[0] >= 0.0

    def test_solve_under_workspace_cap_respects_the_cap(self, context):
        for cap in workspace_levels(context):
            plan = solve_under_workspace_cap(context, cap)
            assert plan is not None
            assert plan.peak_workspace_bytes <= cap
        assert solve_under_workspace_cap(context, -1.0) is None

    def test_infeasible_instance_yields_no_plan(self, context):
        """Tables with no conversion anywhere, not even the identity, cannot
        connect two layers; the solve reports that instead of a plan."""
        tables = context.tables
        unreachable = {
            shape: dict.fromkeys(pairs, math.inf) for shape, pairs in tables.dt_costs.items()
        }
        broken = dataclasses.replace(
            context, tables=dataclasses.replace(tables, dt_costs=unreachable)
        )
        assert solve_under_workspace_cap(broken, max(workspace_levels(context))) is None

    def test_constraint_budget_point_lands_on_the_frontier(self, context):
        """A built-in budget always yields the best plan under it (if any)."""
        levels = workspace_levels(context)
        budget = levels[0]  # tightest feasible cap
        frontier = build_frontier(
            context, constraints={"peak_workspace_bytes_max": budget}
        )
        under = frontier.min_time_under()
        assert under is not None
        assert under.vector.peak_workspace_bytes <= budget


class TestBudgetFlips:
    """Acceptance: a tightened budget flips layers away from im2/fft on
    multiple platforms, for both AlexNet and GoogLeNet."""

    #: Two registered platforms the flip must appear on (the paper's pair).
    PLATFORM_PAIR = ("intel-haswell", "arm-cortex-a57")

    HEAVY = {"im2", "fft"}
    LIGHT = {"direct", "winograd", "kn2", "sum2d"}

    @pytest.fixture(scope="class")
    def session(self):
        from repro.api import Session

        return Session()

    @pytest.mark.parametrize("model", ["alexnet", "googlenet"])
    def test_budget_flips_heavy_families_to_light_on_both_platforms(
        self, session, model
    ):
        library = session.library
        for platform in self.PLATFORM_PAIR:
            context = session.context_for(model, platform)
            base = session.select(model, platform, strategy="pbqp").plan
            base_families = {
                layer: library.get(primitive).family.value
                for layer, primitive in base.conv_selections().items()
            }
            assert self.HEAVY & set(base_families.values()), (
                f"{model} on {platform}: unconstrained plan never uses a "
                "scratch-hungry family; the budget story has nothing to flip"
            )
            capped = solve_under_workspace_cap(
                context, 0.1 * base.peak_workspace_bytes
            )
            assert capped is not None
            assert capped.peak_workspace_bytes <= 0.1 * base.peak_workspace_bytes
            capped_families = {
                layer: library.get(primitive).family.value
                for layer, primitive in capped.conv_selections().items()
            }
            flipped = [
                layer
                for layer, family in base_families.items()
                if family in self.HEAVY and capped_families[layer] in self.LIGHT
            ]
            assert flipped, (
                f"{model} on {platform}: tightening the workspace budget "
                "flipped no layer from im2/fft to a low-scratch family"
            )


class TestMemoryBudgetExperiment:
    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.api import Session
        from repro.experiments.memory_budget import run_memory_budget
        from tests.conftest import build_tiny_network

        # The tiny network keeps the tier-1 suite fast; the full paper-network
        # sweep lives in benchmarks/test_bench_frontier.py.
        return run_memory_budget(
            networks=[build_tiny_network()],
            platform_names=["intel-haswell", "arm-cortex-a57"],
            fractions=(1.0, 0.25, 0.0),
            session=Session(),
        )

    def test_unconstrained_fraction_changes_nothing(self, sweep):
        for platform in sweep.platforms:
            cell = sweep.cell("tiny", platform, 1.0)
            base = sweep.baselines[("tiny", platform)]
            assert cell.feasible
            assert cell.flips == {}
            assert cell.plan.total_ms == pytest.approx(base.total_ms)

    def test_caps_bind_and_cost_time(self, sweep):
        for platform in sweep.platforms:
            base = sweep.baselines[("tiny", platform)]
            for fraction in (0.25, 0.0):
                cell = sweep.cell("tiny", platform, fraction)
                if not cell.feasible:
                    continue
                assert cell.plan.peak_workspace_bytes <= cell.cap_bytes
                assert cell.plan.total_ms >= base.total_ms - 1e-9

    def test_format_renders_rows(self, sweep):
        text = sweep.format()
        assert "Memory-budget sweep" in text
        for platform in sweep.platforms:
            assert platform in text

    def test_missing_cell_raises(self, sweep):
        with pytest.raises(KeyError):
            sweep.cell("tiny", "intel-haswell", 0.5)
