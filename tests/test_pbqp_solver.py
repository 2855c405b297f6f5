"""Tests for the PBQP reductions, solver and brute-force oracle."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core import selector as selector_module
from repro.core.selector import PBQPSelector
from repro.cost.serialize import plan_to_dict
from repro.pbqp import reductions, solver as solver_module
from repro.pbqp.bruteforce import brute_force_solve
from repro.pbqp.graph import PBQPGraph
from repro.pbqp.reductions import WorkingCosts, apply_r0, apply_r1, apply_r2, apply_rn
from repro.pbqp.schedule import R0, R1, R2, RN, derive_schedule
from repro.pbqp.solution import PBQPSolution
from repro.pbqp.solver import InfeasibleProblemError, PBQPSolver


def random_graph(rng, num_nodes, edge_probability=0.5, max_alternatives=4):
    """Build a random PBQP instance."""
    graph = PBQPGraph()
    ids = []
    for index in range(num_nodes):
        size = int(rng.integers(1, max_alternatives + 1))
        ids.append(graph.add_node(rng.uniform(0, 10, size=size), name=f"n{index}"))
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < edge_probability:
                rows = graph.node(ids[i]).degree_of_freedom
                cols = graph.node(ids[j]).degree_of_freedom
                graph.add_edge(ids[i], ids[j], rng.uniform(0, 10, size=(rows, cols)))
    return graph


def working_costs(graph):
    """What a solve of ``graph`` folds."""
    return WorkingCosts(graph, derive_schedule(graph).slot_count)


class TestReductions:
    def test_r0_picks_minimum(self):
        graph = PBQPGraph()
        node = graph.add_node([5.0, 2.0, 7.0])
        record = apply_r0(working_costs(graph), node)
        assert record.back_propagate({}) == 1

    def test_schedule_goes_by_degree_in_id_order(self):
        # Reductions go by degree in id order: 0 (degree 1) folds into 1,
        # which is then isolated, as 2 is from the start.
        graph = PBQPGraph()
        a = graph.add_node([1.0])
        b = graph.add_node([1.0])
        graph.add_node([1.0])
        graph.add_edge(a, b, [[0.0]])
        steps = derive_schedule(graph).steps
        assert steps[:, :2].tolist() == [[R1, 0], [R0, 1], [R0, 2]]

    def test_r1_folds_costs_into_neighbor(self):
        graph = PBQPGraph()
        leaf = graph.add_node([1.0, 4.0])
        hub = graph.add_node([0.0, 0.0])
        graph.add_edge(leaf, hub, [[0.0, 10.0], [10.0, 0.0]])
        work = working_costs(graph)
        record = apply_r1(work, leaf, hub, 0)
        # For hub alternative 0 the best leaf choice is 0 (1 + 0); for hub
        # alternative 1 it is 1 (4 + 0).
        np.testing.assert_allclose(work.costs[hub], [1.0, 4.0])
        np.testing.assert_allclose(graph.node(hub).costs, [0.0, 0.0])
        assert work.matrices == [None]
        assert record.back_propagate({hub: 0}) == 0
        assert record.back_propagate({hub: 1}) == 1

    def test_r2_creates_edge_between_neighbors(self):
        graph = PBQPGraph()
        middle = graph.add_node([0.0, 5.0])
        left = graph.add_node([0.0, 0.0])
        right = graph.add_node([0.0, 0.0])
        graph.add_edge(middle, left, [[0.0, 3.0], [1.0, 0.0]])
        graph.add_edge(middle, right, [[0.0, 2.0], [4.0, 0.0]])
        schedule = derive_schedule(graph)
        assert schedule.steps[0].tolist() == [R2, middle, 0, 2, 2, 0]
        work = working_costs(graph)
        record = apply_r2(work, middle, left, right, 0, 1, 2, False)
        assert work.matrices[:2] == [None, None]
        # delta[jl, jr] = min_i(c[i] + Ml[i, jl] + Mr[i, jr])
        expected = np.array([[0.0, 2.0], [3.0, 5.0]])
        np.testing.assert_allclose(work.matrices[2], expected)
        assert record.back_propagate({left: 0, right: 0}) == 0

    def test_rn_commits_and_folds(self):
        graph = PBQPGraph()
        center = graph.add_node([0.0, 100.0])
        spokes = [graph.add_node([0.0, 0.0]) for _ in range(3)]
        for spoke in spokes:
            graph.add_edge(center, spoke, [[0.0, 1.0], [2.0, 3.0]])
        work = working_costs(graph)
        record = apply_rn(work, center, spokes, [0, 1, 2])
        assert record.chosen == 0
        assert work.matrices == [None] * 3
        for spoke in spokes:
            np.testing.assert_allclose(work.costs[spoke], [0.0, 1.0])



class TestSolverSmallInstances:
    def test_single_node(self):
        graph = PBQPGraph()
        graph.add_node([3.0, 1.0, 2.0])
        solution = PBQPSolver().solve(graph)
        assert solution.cost == pytest.approx(1.0)
        assert solution.optimal

    def test_figure2_node_only(self):
        graph = PBQPGraph()
        graph.add_node([8.0, 6.0, 10.0], labels=["A", "B", "C"])
        graph.add_node([17.0, 19.0, 14.0], labels=["A", "B", "C"])
        graph.add_node([20.0, 17.0, 22.0], labels=["A", "B", "C"])
        solution = PBQPSolver().solve(graph)
        assert solution.cost == pytest.approx(37.0)
        assert [graph.node(n).label_of(solution.assignment[n]) for n in graph.node_ids] == [
            "B",
            "C",
            "B",
        ]

    def test_edge_costs_change_optimum(self):
        """A cheap node choice can be overridden by expensive edge costs."""
        graph = PBQPGraph()
        a = graph.add_node([0.0, 1.0])
        b = graph.add_node([0.0, 1.0])
        graph.add_edge(a, b, [[10.0, 10.0], [10.0, 0.0]])
        solution = PBQPSolver().solve(graph)
        assert solution.assignment[a] == 1 and solution.assignment[b] == 1
        assert solution.cost == pytest.approx(2.0)

    def test_infinite_edges_avoided_when_possible(self):
        graph = PBQPGraph()
        a = graph.add_node([0.0, 5.0])
        b = graph.add_node([0.0, 5.0])
        graph.add_edge(a, b, [[math.inf, 0.0], [0.0, math.inf]])
        solution = PBQPSolver().solve(graph)
        assert math.isfinite(solution.cost)
        assert solution.cost == pytest.approx(5.0)

    def test_infeasible_core_raises(self):
        """A 4-clique (irreducible: every degree is 3) whose edges are all
        infinite has no finite assignment; the solver must say so rather
        than return an arbitrary one."""
        graph = PBQPGraph()
        nodes = [graph.add_node([0.0, 1.0]) for _ in range(4)]
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                graph.add_edge(u, v, np.full((2, 2), math.inf))
        with pytest.raises(InfeasibleProblemError, match="no finite-cost assignment"):
            PBQPSolver().solve(graph)

    def test_infeasibility_proved_by_reductions_raises(self):
        """Two nodes joined by an all-infinite edge reduce away under R1
        alone; the exact path must not return ``cost=inf`` as optimal."""
        graph = PBQPGraph()
        a = graph.add_node([0.0, 1.0])
        b = graph.add_node([0.0, 1.0])
        graph.add_edge(a, b, np.full((2, 2), math.inf))
        solver = PBQPSolver()
        with pytest.raises(InfeasibleProblemError, match="no finite-cost assignment"):
            solver.solve(graph)
        assert solver.last_stats.r1_count == 1
        assert solver.last_stats.core_nodes == 0

    def test_partially_infinite_core_still_solved(self):
        """Infinite entries that leave one finite assignment are not infeasible."""
        graph = PBQPGraph()
        nodes = [graph.add_node([0.0, 1.0]) for _ in range(4)]
        allow_ones = np.array([[math.inf, math.inf], [math.inf, 0.0]])
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                graph.add_edge(u, v, allow_ones)
        solution = PBQPSolver().solve(graph)
        assert solution.optimal
        assert solution.cost == 4.0
        assert set(solution.assignment.values()) == {1}

    def test_solution_verify(self):
        graph = PBQPGraph()
        a = graph.add_node([1.0, 2.0])
        b = graph.add_node([3.0, 4.0])
        graph.add_edge(a, b, [[0.0, 1.0], [1.0, 0.0]])
        solution = PBQPSolver().solve(graph)
        assert solution.verify(graph)
        wrong = PBQPSolution(assignment=dict(solution.assignment), cost=solution.cost + 5)
        assert not wrong.verify(graph)

    def test_named_selection(self):
        graph = PBQPGraph()
        graph.add_node([1.0, 0.0], name="layer", labels=["slow", "fast"])
        solution = PBQPSolver().solve(graph)
        assert solution.named_selection(graph) == {"layer": "fast"}

    def test_stats_populated(self):
        solver = PBQPSolver()
        graph = random_graph(np.random.default_rng(0), 8, edge_probability=0.4)
        solver.solve(graph)
        stats = solver.last_stats
        assert stats is not None
        assert stats.total_reductions() >= 1
        assert stats.solve_seconds >= 0.0

    def test_input_graph_not_mutated(self):
        graph = random_graph(np.random.default_rng(3), 6)
        nodes_before = graph.num_nodes
        edges_before = graph.num_edges
        PBQPSolver().solve(graph)
        assert graph.num_nodes == nodes_before
        assert graph.num_edges == edges_before

    def test_invalid_core_limit(self):
        with pytest.raises(ValueError):
            PBQPSolver(exact_core_limit=0)


class TestSolverAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_sparse_instances(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, num_nodes=int(rng.integers(2, 8)), edge_probability=0.45)
        solution = PBQPSolver().solve(graph)
        oracle = brute_force_solve(graph)
        assert solution.cost == pytest.approx(oracle.cost, rel=1e-9)
        assert solution.verify(graph)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_dense_instances_need_rn_or_bnb(self, seed):
        """Dense graphs have irreducible cores, exercising the exact core search."""
        rng = np.random.default_rng(100 + seed)
        graph = random_graph(rng, num_nodes=6, edge_probability=0.9, max_alternatives=3)
        solution = PBQPSolver().solve(graph)
        oracle = brute_force_solve(graph)
        assert solution.optimal
        assert solution.cost == pytest.approx(oracle.cost, rel=1e-9)

    def test_heuristic_fallback_still_feasible(self):
        """With the exact core disabled, the RN heuristic still returns a valid solution."""
        rng = np.random.default_rng(7)
        graph = random_graph(rng, num_nodes=7, edge_probability=0.9, max_alternatives=3)
        heuristic = PBQPSolver(exact_core_limit=1).solve(graph)
        oracle = brute_force_solve(graph)
        assert heuristic.cost >= oracle.cost - 1e-9
        assert heuristic.verify(graph)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_solver_matches_oracle_property(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, num_nodes=int(rng.integers(1, 6)), edge_probability=0.5)
        solution = PBQPSolver().solve(graph)
        oracle = brute_force_solve(graph)
        assert solution.cost == pytest.approx(oracle.cost, rel=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_chain_graphs_fully_reduce(self, seed):
        """Linear chains (like VGG) are solved exactly by R1/R2 alone."""
        rng = np.random.default_rng(seed)
        graph = PBQPGraph()
        previous = None
        for index in range(int(rng.integers(2, 10))):
            node = graph.add_node(rng.uniform(0, 5, size=3))
            if previous is not None:
                graph.add_edge(previous, node, rng.uniform(0, 5, size=(3, 3)))
            previous = node
        solver = PBQPSolver()
        solution = solver.solve(graph)
        oracle = brute_force_solve(graph)
        assert solution.cost == pytest.approx(oracle.cost, rel=1e-9)
        assert solver.last_stats.core_nodes == 0
        assert solver.last_stats.rn_count == 0


class TestBruteForce:
    def test_limit_enforced(self):
        graph = PBQPGraph()
        for _ in range(12):
            graph.add_node([1.0] * 8)
        with pytest.raises(ValueError):
            brute_force_solve(graph, limit=1000)

    def test_single_node(self):
        graph = PBQPGraph()
        graph.add_node([4.0, 2.0])
        assert brute_force_solve(graph).cost == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# The batched fold: K cost variants over one topology in one solve.
# ---------------------------------------------------------------------------


def tree_pairs(rng, num_nodes):
    """A random tree: every node after the first hangs off an earlier one."""
    return [(int(rng.integers(0, i)), i) for i in range(1, num_nodes)]


def series_parallel_pairs(rng, num_nodes):
    """A random two-terminal series-parallel graph (R1/R2 reduce it fully)."""
    pairs = [(0, 1)]
    for w in range(2, num_nodes):
        u, v = pairs[int(rng.integers(0, len(pairs)))]
        if rng.random() < 0.5:
            pairs.remove((u, v))  # series: subdivide the edge
        pairs.extend([(u, w), (w, v)])  # parallel otherwise: keep it
    return pairs


def dense_pairs(rng, num_nodes):
    """Nearly complete graphs: degree-3+ cores survive R0/R1/R2."""
    return [
        (i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes) if rng.random() < 0.85
    ]


TOPOLOGIES = {"tree": tree_pairs, "series_parallel": series_parallel_pairs, "dense": dense_pairs}


def random_batched_graph(
    rng,
    pairs,
    num_nodes,
    batch,
    max_alternatives=4,
    inf_probability=0.1,
    classes=True,
    min_alternatives=1,
):
    """A batched instance built like :func:`random_graph`, with ``inf`` entries
    and declared duplicate-row classes.

    Each node's alternatives get class ids; every incident matrix is drawn
    per class pair and expanded, so alternatives of one class share rows.
    """

    def draw(shape):
        values = rng.uniform(0, 10, size=shape)
        values[rng.random(shape) < inf_probability] = math.inf
        return values

    graph = PBQPGraph(batch=batch)
    class_of = []
    for index in range(num_nodes):
        size = int(rng.integers(min_alternatives, max_alternatives + 1))
        ids = rng.integers(0, max(1, size - 1), size=size) if classes else np.arange(size)
        class_of.append(ids)
        graph.add_node(draw((batch, size)), name=f"n{index}", classes=ids if classes else None)
    for u, v in pairs:
        base = draw((batch, class_of[u].max() + 1, class_of[v].max() + 1))
        graph.add_edge(u, v, base[:, class_of[u]][:, :, class_of[v]])
    return graph


def slice_solutions(graph, exact_core_limit=2_000_000):
    """What solving every slice on its own returns (``None`` if infeasible)."""
    solutions = []
    for k in range(graph.batch):
        try:
            solutions.append(PBQPSolver(exact_core_limit).solve(graph.slice(k)))
        except InfeasibleProblemError:
            solutions.append(None)
    return solutions


def assert_batched_matches_slices(graph, monkeypatch, exact_core_limit=2_000_000):
    """Batched solve == per-slice solves, compared with ``==``.

    The per-slice references run with the default fold chunk; the batched
    solve runs with one alternative per chunk, so every chunk merge is
    exercised against an unchunked fold.
    """
    expected = slice_solutions(graph, exact_core_limit)
    monkeypatch.setattr(reductions, "FOLD_CHUNK_ENTRIES", 1)
    solver = PBQPSolver(exact_core_limit)
    batched = solver.solve(graph)
    monkeypatch.undo()
    assert len(batched) == graph.batch
    for k, (got, want) in enumerate(zip(batched, expected)):
        if want is None:
            assert got is None, k
            continue
        assert got is not None, k
        assert got.assignment == want.assignment, k
        assert got.cost == want.cost, k
        assert got.optimal == want.optimal, k
    return batched, solver.last_stats


class TestBatchedFold:
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("seed", range(8))
    def test_slices_match_separate_solves_and_brute_force(
        self, seed, topology, batch, monkeypatch
    ):
        rng = np.random.default_rng(1000 + seed)
        num_nodes = int(rng.integers(2, 7))
        pairs = TOPOLOGIES[topology](rng, num_nodes)
        graph = random_batched_graph(rng, pairs, num_nodes, batch)
        batched, _ = assert_batched_matches_slices(graph, monkeypatch)
        for k, solution in enumerate(batched):
            oracle = brute_force_solve(graph.slice(k))
            if solution is None:
                assert oracle.cost == math.inf
            else:
                assert solution.optimal
                assert solution.cost == pytest.approx(oracle.cost, rel=1e-12)
                assert solution.cost == graph.slice(k).solution_cost(solution.assignment)

    @pytest.mark.parametrize("seed", range(6))
    def test_larger_series_parallel_graphs_with_wide_nodes(self, seed, monkeypatch):
        """More alternatives than one chunk holds, folded at class level."""
        rng = np.random.default_rng(2000 + seed)
        pairs = series_parallel_pairs(rng, 30)
        graph = random_batched_graph(rng, pairs, 30, 3, max_alternatives=12, inf_probability=0.02)
        _, stats = assert_batched_matches_slices(graph, monkeypatch)
        assert stats.core_nodes == 0 and stats.r2_count > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_core_search_per_slice(self, seed, monkeypatch):
        rng = np.random.default_rng(3000 + seed)
        graph = random_batched_graph(rng, dense_pairs(rng, 7), 7, 3, max_alternatives=3)
        _, stats = assert_batched_matches_slices(graph, monkeypatch)
        assert stats.rn_count == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_rn_path(self, seed, monkeypatch):
        rng = np.random.default_rng(4000 + seed)
        graph = random_batched_graph(
            rng, dense_pairs(rng, 7), 7, 3, max_alternatives=3, inf_probability=0.0
        )
        batched, stats = assert_batched_matches_slices(graph, monkeypatch, exact_core_limit=1)
        assert stats.rn_count > 0
        assert all(solution is not None and not solution.optimal for solution in batched)

    @pytest.mark.parametrize("topology", ["series_parallel", "dense"])
    def test_infeasible_slice_leaves_the_others_unaffected(self, topology, monkeypatch):
        rng = np.random.default_rng(5000)
        pairs = TOPOLOGIES[topology](rng, 6)
        graph = random_batched_graph(rng, pairs, 6, 3, inf_probability=0.0)
        feasible = slice_solutions(graph)
        graph.node(2).costs[1, :] = math.inf  # slice 1 can give node 2 no alternative
        batched, _ = assert_batched_matches_slices(graph, monkeypatch)
        assert batched[1] is None
        for k in (0, 2):
            assert batched[k].assignment == feasible[k].assignment
            assert batched[k].cost == feasible[k].cost

    def test_unbatched_graph_has_no_slices(self):
        graph = random_graph(np.random.default_rng(0), 3)
        assert graph.batch is None
        with pytest.raises(ValueError):
            graph.slice(0)
        assert isinstance(PBQPSolver().solve(graph), PBQPSolution)


# ---------------------------------------------------------------------------
# The schedule replay: what a solve derives from topology alone and replays.
# ---------------------------------------------------------------------------


def two_tree_pairs(rng, num_nodes):
    """Triangles glued along edges: every node after the second joins both
    ends of an existing edge, so every R2 folds onto an existing edge."""
    pairs = [(0, 1)]
    for w in range(2, num_nodes):
        u, v = pairs[int(rng.integers(0, len(pairs)))]
        pairs.extend([(u, w), (v, w)])
    return pairs


def parallel_path_pairs(rng, num_nodes):
    """Paths of one middle node between two hubs (the last two nodes),
    which may also share an edge: the first middle's R2 fold creates or
    merges the hub edge, every later one merges."""
    hubs = (num_nodes - 2, num_nodes - 1)
    pairs = [(middle, hub) for middle in range(num_nodes - 2) for hub in hubs]
    return pairs + ([hubs] if rng.random() < 0.5 else [])


def cycle_pairs(rng, num_nodes):
    """A ring: each R2 centre was a neighbor of the one before it."""
    return [(i, (i + 1) % num_nodes) for i in range(num_nodes)]


def core_with_tails_pairs(rng, num_nodes):
    """A complete core on the first five nodes (or fewer) with paths, rings and
    pendants hanging off it, so RN steps unlock R0-R2 steps.  Each tail has at
    most two earlier neighbors, so R0-R2 fold every tail without taking a core
    node below degree four: an RN step always starts the core."""
    core = min(5, num_nodes)
    pairs = [(i, j) for i in range(core) for j in range(i + 1, core)]
    for w in range(core, num_nodes):
        u = int(rng.integers(0, w))
        pairs.append((u, w))
        if rng.random() < 0.4:
            pairs.append((int(rng.integers(0, core)), w))
    return sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})


REPLAY_TOPOLOGIES = {
    "two_tree": two_tree_pairs,
    "parallel_paths": parallel_path_pairs,
    "cycle": cycle_pairs,
    "core_with_tails": core_with_tails_pairs,
    **TOPOLOGIES,
}

replay_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(REPLAY_TOPOLOGIES)),
    st.integers(3, 9),
    st.integers(1, 3),
)


def replay_graph(case, **options):
    seed, topology, num_nodes, batch = case
    rng = np.random.default_rng(seed)
    pairs = REPLAY_TOPOLOGIES[topology](rng, num_nodes)
    return random_batched_graph(rng, pairs, num_nodes, batch, **options), rng


def assert_matches_slices_and_brute_force(graph):
    with pytest.MonkeyPatch.context() as patch:
        batched, stats = assert_batched_matches_slices(graph, patch)
    for k, solution in enumerate(batched):
        oracle = brute_force_solve(graph.slice(k))
        if solution is None:
            assert oracle.cost == math.inf
        else:
            assert solution.optimal
            assert solution.cost == pytest.approx(oracle.cost, rel=1e-12)
    return stats


class TestScheduleReplay:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        topology=st.sampled_from(["two_tree", "parallel_paths"]),
        num_nodes=st.integers(4, 8),
        batch=st.integers(1, 3),
    )
    def test_r2_folds_onto_an_existing_edge(self, seed, topology, num_nodes, batch):
        graph, _ = replay_graph((seed, topology, num_nodes, batch))
        steps = derive_schedule(graph).steps
        r2 = steps[steps[:, 0] == R2]
        assert r2[:, 5].any()  # some fold merges onto an existing edge
        assert_matches_slices_and_brute_force(graph)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_nodes=st.integers(4, 8), batch=st.integers(1, 3))
    def test_classed_node_is_an_r2_centre_and_a_neighbor(self, seed, num_nodes, batch):
        graph, _ = replay_graph(
            (seed, "cycle", num_nodes, batch), min_alternatives=3, max_alternatives=5
        )
        assert all(node.class_groups is not None for node in graph.nodes())
        schedule = derive_schedule(graph)
        first, second = schedule.steps[:2].tolist()
        assert first[0] == second[0] == R2
        assert second[1] in schedule.links[first[2] : first[3], 0]
        stats = assert_matches_slices_and_brute_force(graph)
        assert stats.r2_count > 1 and stats.core_nodes == 0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_nodes=st.integers(7, 11), batch=st.integers(1, 3))
    def test_rn_interleaves_with_reductions(self, seed, num_nodes, batch):
        # Two alternatives or more per node, so the core exceeds exact_core_limit=1.
        graph, _ = replay_graph(
            (seed, "core_with_tails", num_nodes, batch),
            min_alternatives=2,
            max_alternatives=3,
            inf_probability=0.0,
        )
        schedule = derive_schedule(graph)
        kinds = schedule.steps[schedule.core_start :, 0].tolist()
        assert kinds and kinds[0] == RN and any(kind != RN for kind in kinds)
        with pytest.MonkeyPatch.context() as patch:
            batched, stats = assert_batched_matches_slices(graph, patch, exact_core_limit=1)
        assert stats.rn_count == kinds.count(RN)
        assert stats.total_reductions() == len(schedule.steps)
        for k, solution in enumerate(batched):
            assert not solution.optimal
            assert solution.cost == graph.slice(k).solution_cost(solution.assignment)

    @settings(max_examples=30, deadline=None)
    @given(case=replay_cases, data=st.data())
    def test_an_infeasible_slice_is_none_and_leaves_the_others(self, case, data):
        seed, topology, num_nodes, _ = case
        graph, rng = replay_graph((seed, topology, num_nodes, 3), inf_probability=0.0)
        feasible = slice_solutions(graph)
        node = data.draw(st.integers(0, num_nodes - 1))
        graph.node(node).costs[1, :] = math.inf
        with pytest.MonkeyPatch.context() as patch:
            batched, _ = assert_batched_matches_slices(graph, patch)
        assert batched[1] is None
        for k in (0, 2):
            assert batched[k].assignment == feasible[k].assignment
            assert batched[k].cost == feasible[k].cost

    @settings(max_examples=40, deadline=None)
    @given(case=replay_cases, batched=st.booleans(), exact_core_limit=st.sampled_from([1, 10**6]))
    def test_solve_leaves_the_graph_unchanged(self, case, batched, exact_core_limit):
        graph, _ = replay_graph(case)
        if not batched:
            graph = graph.slice(0)
        nodes = [(node, node.costs, node.costs.copy()) for node in graph.nodes()]
        edges = [(edge, edge.matrix, edge.matrix.copy()) for edge in graph.edges()]
        try:
            PBQPSolver(exact_core_limit).solve(graph)
        except InfeasibleProblemError:
            pass
        assert [node for node, _, _ in nodes] == graph.nodes()
        assert [edge for edge, _, _ in edges] == graph.edges()
        for node, costs, values in nodes:
            assert node.costs is costs
            np.testing.assert_array_equal(costs, values)
        for edge, matrix, values in edges:
            assert edge.matrix is matrix
            np.testing.assert_array_equal(matrix, values)


def test_an_encoding_derives_its_schedule_once(monkeypatch, library, intel):
    calls = []
    derive = solver_module.derive_schedule
    for module in (solver_module, selector_module):
        monkeypatch.setattr(
            module, "derive_schedule", lambda graph: calls.append(graph) or derive(graph)
        )
    context = Session(library=library).context_for("googlenet", intel)
    selector = PBQPSelector()
    plans = [plan_to_dict(selector.select(context)) for _ in range(3)]
    assert plans[0] == plans[1] == plans[2]
    encoding = context.encoding()
    costs = (np.stack([encoding.time] * 2), np.stack([encoding.dt_time] * 2))
    batched, _ = encoding.graph(*costs, batch=2)
    solutions = PBQPSolver().solve(batched)
    assert solutions[0] == solutions[1]
    assert len(calls) == 1

    # A graph whose topology changes after encoding, and a hand-built graph,
    # derive theirs on every solve.
    graph, _ = selector.build_pbqp(context)
    graph.add_node([0.0])
    PBQPSolver().solve(graph)
    hand_built = random_graph(np.random.default_rng(0), 5)
    PBQPSolver().solve(hand_built)
    PBQPSolver().solve(hand_built)
    assert len(calls) == 4


class TestRNFallbackLogging:
    @pytest.fixture(autouse=True)
    def fresh_process_flag(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_RN_FALLBACK_LOGGED", False)

    def test_rn_fallback_logs_once(self, caplog):
        caplog.set_level(logging.WARNING, logger="repro.pbqp.solver")
        for seed in (7, 8):
            graph = random_graph(np.random.default_rng(seed), 7, 0.9, max_alternatives=3)
            assert not PBQPSolver(exact_core_limit=1).solve(graph).optimal
        records = [r for r in caplog.records if r.name == "repro.pbqp.solver"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert "exact_core_limit=1" in records[0].getMessage()

    def test_batched_rn_fallback_logs_once(self, caplog):
        caplog.set_level(logging.WARNING, logger="repro.pbqp.solver")
        rng = np.random.default_rng(9)
        graph = random_batched_graph(rng, dense_pairs(rng, 7), 7, 3, inf_probability=0.0)
        PBQPSolver(exact_core_limit=1).solve(graph)
        assert len([r for r in caplog.records if r.name == "repro.pbqp.solver"]) == 1

    def test_exact_solves_stay_silent(self, caplog):
        caplog.set_level(logging.WARNING, logger="repro.pbqp.solver")
        PBQPSolver().solve(random_graph(np.random.default_rng(7), 7, 0.9, max_alternatives=3))
        assert not [r for r in caplog.records if r.name == "repro.pbqp.solver"]
