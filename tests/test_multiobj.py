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

import numpy as np
import pytest

from repro.api import Session
from repro.core.legalize import finalize_plan
from repro.core.selector import PBQPSelector
from repro.graph.scenario import DTYPES
from repro.models import MODEL_BUILDERS
from repro.multiobj import frontier as frontier_module
from repro.multiobj.frontier import (
    FRONTIER_FORMAT,
    SCALARIZATION_WEIGHTS,
    Frontier,
    _FrontierVariants,
    build_frontier,
    solve_under_workspace_cap,
    workspace_levels,
)
from repro.multiobj.pareto import (
    _pareto_front,
    knee_index,
    lexicographic_index,
    min_time_under_index,
)
from repro.multiobj.vector import CostVector
from repro.pbqp.solver import InfeasibleProblemError

from frontier_tables import scalarization_scales, scalarized_tables, workspace_gated_tables


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
        return Session(library=library, dt_graph=dt_graph).context_for(tiny_network_session, intel)

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

    def test_format_carries_no_wall_clock(self, context, frontier):
        """The text is deterministic: the build time stays on the object."""
        slower = dataclasses.replace(frontier, solve_seconds=frontier.solve_seconds + 1.0)
        assert slower.format() == frontier.format()
        assert build_frontier(context, seed=0).format() == frontier.format()
        assert frontier.solve_seconds > 0.0

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

    def test_one_budget_step_sweeps_the_floor_cap(self):
        session = Session()
        frontier = session.plan_frontier(
            "alexnet", "intel-haswell", budget_steps=1, dtypes=("fp32",)
        )
        floor = workspace_levels(session.context_for("alexnet", "intel-haswell"))[0]
        assert min(point.vector.peak_workspace_bytes for point in frontier.points) == floor

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
            base = session.plan(model, platform, verify=False).network_plan
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


# ---------------------------------------------------------------------------
# The batched frontier solve against the per-generator reference path.
# ---------------------------------------------------------------------------

PAPER_PLATFORMS = ("intel-haswell", "arm-cortex-a57")
#: The models the perfbench frontier workload plans.
PERFBENCH_FRONTIER_MODELS = ("alexnet", "vgg-d", "mobilenet_v1", "resnet18", "mobilenet_v2")


def _reference_solve(context, tables, label):
    """One generator the per-generator way: its own dict tables, its own
    encoding and solve (no class folding), finalized against the true tables."""
    selector = PBQPSelector()
    graph, id_to_layer = selector.build_pbqp(dataclasses.replace(context, tables=tables))
    for node in graph.nodes():
        node.class_groups = None
    try:
        solution = selector.solver.solve(graph)
    except InfeasibleProblemError:
        return None
    conv_primitives, wildcard_layouts = selector.decode_assignment(
        context, graph, id_to_layer, solution.assignment
    )
    plan = finalize_plan(context, "frontier", conv_primitives, wildcard_layouts)
    plan.metadata["generator"] = label
    return plan


def _reference_solve_variants(context, caps, weights, known=frozenset()):
    """Every cap through pruned tables, every weight triple through
    scalarized tables, one solve each.  Every slice is finalized, ``known``
    or not: build_frontier drops the repeats."""
    plans = []
    for cap in caps:
        gated = workspace_gated_tables(context, cap)
        plans.append(
            None if gated is None else _reference_solve(context, gated, f"cap:{int(cap)}")
        )
    scales = scalarization_scales(context.tables)
    for triple in weights:
        label = "weights:" + "/".join(f"{w:g}" for w in triple)
        plans.append(
            _reference_solve(context, scalarized_tables(context, triple, scales), label)
        )
    return plans


def _assert_frontier_matches_reference(monkeypatch, build):
    document = build().to_json()
    with monkeypatch.context() as patch:
        patch.setattr(frontier_module, "_solve_variants", _reference_solve_variants)
        reference = build().to_json()
    assert document == reference


@pytest.fixture(scope="module")
def session():
    from repro.api import Session

    return Session()


class TestBatchedFrontierIdentity:
    """Acceptance: the one batched solve yields byte-identical frontiers."""

    @pytest.mark.parametrize("platform", PAPER_PLATFORMS)
    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_zoo_fp32(self, session, model, platform, monkeypatch):
        _assert_frontier_matches_reference(
            monkeypatch, lambda: session.plan_frontier(model, platform, dtypes=("fp32",))
        )

    @pytest.mark.parametrize("platform", PAPER_PLATFORMS)
    @pytest.mark.parametrize("model", PERFBENCH_FRONTIER_MODELS)
    def test_perfbench_models_every_dtype(self, session, model, platform, monkeypatch):
        for dtype in DTYPES:
            dtypes = (dtype,) + tuple(other for other in DTYPES if other != dtype)
            _assert_frontier_matches_reference(
                monkeypatch, lambda: session.plan_frontier(model, platform, dtypes=dtypes)
            )

    @pytest.mark.parametrize("platform", PAPER_PLATFORMS)
    def test_workspace_budget(self, session, platform, monkeypatch):
        context = session.context_for("resnet18", platform)
        levels = workspace_levels(context)
        budget = (levels[len(levels) // 2] + levels[len(levels) // 2 + 1]) / 2
        _assert_frontier_matches_reference(
            monkeypatch,
            lambda: build_frontier(context, constraints={"peak_workspace_bytes_max": budget}),
        )

    @pytest.mark.parametrize("platform", PAPER_PLATFORMS)
    def test_solve_under_workspace_cap_is_the_single_cap_case(self, session, platform):
        context = session.context_for("googlenet", platform)
        levels = workspace_levels(context)
        for cap in (levels[0], levels[len(levels) // 2], levels[-1]):
            plan = solve_under_workspace_cap(context, cap)
            (reference,) = _reference_solve_variants(context, [cap], [])
            assert plan.layer_decisions == reference.layer_decisions
            assert plan.total_cost == reference.total_cost
        assert solve_under_workspace_cap(context, levels[0] - 1.0) is None


class TestCandidateDedup:
    """A slice repeating an earlier candidate is dropped before legalization."""

    @pytest.mark.parametrize("model", ["alexnet", "resnet18"])
    def test_repeated_variants_are_never_finalized(self, session, model, monkeypatch):
        context = session.context_for(model, "intel-haswell")
        dtype_contexts = {
            dtype: session.context_for(model, "intel-haswell", dtype=dtype) for dtype in DTYPES
        }
        finalized = []
        earlier = []

        def counting_finalize(*args, **kwargs):
            plan = finalize_plan(*args, **kwargs)
            finalized.append(frontier_module._plan_signature(plan))
            return plan

        solve_variants = frontier_module._solve_variants

        def recording_solve(context, caps, weights, known=frozenset()):
            earlier.extend(known)
            unfiltered = [plan for plan in solve_variants(context, caps, weights) if plan]
            finalized.clear()
            plans = solve_variants(context, caps, weights, known)
            # The top cap and the pure time weighting select the scalar PBQP
            # plan, a seed: one slice repeats another and a known candidate.
            assert len(finalized) < len(unfiltered) < len(caps) + len(weights)
            return plans

        monkeypatch.setattr(frontier_module, "finalize_plan", counting_finalize)
        monkeypatch.setattr(frontier_module, "_solve_variants", recording_solve)
        frontier = build_frontier(context, dtype_contexts=dtype_contexts)

        # Every seed and precision candidate was known to the batched solve,
        # and each of its finalize_plan calls made a new candidate.
        assert len(earlier) == len(set(earlier)) == frontier.candidates_evaluated - len(finalized)
        assert len(set(finalized)) == len(finalized)
        assert not set(finalized) & set(earlier)


class TestBatchedEncoding:
    """Slices of the frontier's batched encoding against the dict tables."""

    @pytest.fixture(
        scope="class", params=[("resnet18", "intel-haswell"), ("googlenet", "arm-cortex-a57")]
    )
    def context(self, request, session):
        return session.context_for(*request.param)

    def test_weight_slices_equal_the_scalarized_tables_encoding(self, context):
        selector = PBQPSelector()
        weights = list(SCALARIZATION_WEIGHTS)
        graph, _ = selector.build_pbqp(context, _FrontierVariants([], weights))
        scales = scalarization_scales(context.tables)
        for k, triple in enumerate(weights):
            tables = scalarized_tables(context, triple, scales)
            reference, _ = selector.build_pbqp(dataclasses.replace(context, tables=tables))
            _assert_slice_bytes(graph.slice(k), reference)

    def test_cap_slices_mask_the_time_vector(self, context):
        selector = PBQPSelector()
        caps = workspace_levels(context)[:3]
        variants = _FrontierVariants(caps, [])
        graph, id_to_layer = selector.build_pbqp(context, variants)
        base, _ = selector.build_pbqp(context)
        tables = context.tables
        for k, cap in enumerate(caps):
            piece = graph.slice(k)
            for node, expected in zip(piece.nodes(), base.nodes()):
                layer = id_to_layer.get(node.node_id)
                if layer in tables.node_costs:
                    fits = [
                        tables.primitive_workspace(layer, name) <= cap for name in node.labels
                    ]
                    expected_costs = np.where(fits, expected.costs, math.inf)
                else:
                    expected_costs = expected.costs
                assert node.costs.tobytes() == expected_costs.tobytes(), node.name
            for edge, expected in zip(piece.edges(), base.edges()):
                assert edge.matrix.tobytes() == expected.matrix.tobytes()

    @pytest.mark.parametrize("platform", PAPER_PLATFORMS)
    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_declared_classes_have_identical_rows(self, session, model, platform):
        graph, _ = PBQPSelector().build_pbqp(session.context_for(model, platform))
        classed = [node for node in graph.nodes() if node.class_groups is not None]
        assert classed
        for node in classed:
            for neighbor in graph.neighbors(node.node_id):
                matrix = graph.edge_matrix(node.node_id, neighbor)
                for cls in np.unique(node.classes):
                    rows = matrix[node.classes == cls]
                    assert (rows == rows[0]).all(), (node.name, neighbor)


def _assert_slice_bytes(piece, reference):
    assert [(n.node_id, n.labels) for n in piece.nodes()] == [
        (n.node_id, n.labels) for n in reference.nodes()
    ]
    for node, expected in zip(piece.nodes(), reference.nodes()):
        assert node.costs.tobytes() == expected.costs.tobytes(), node.name
    assert [(e.u, e.v) for e in piece.edges()] == [(e.u, e.v) for e in reference.edges()]
    for edge, expected in zip(piece.edges(), reference.edges()):
        assert edge.matrix.tobytes() == expected.matrix.tobytes(), (edge.u, edge.v)
